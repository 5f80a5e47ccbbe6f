"""Link probabilities and the masked cross-entropy objective.

The model scores a directed pair (i, j) with a bilinear logit z_i^T W z_j,
where z_i is node i's binary community-membership row and W is a real
community-interaction matrix. The fitting objective is

    Q(W, Z) = sum over observed (i,j) of [-y_ij * a_ij + softplus(a_ij)]
              + K * lambda^2

with a_ij the logit and K the number of columns of Z. The fit drops a
column as soon as a sweep empties it, so in the states it scores K is K+,
the number of non-empty communities. The penalty charges lambda^2 per
community, which is what stops the trivial one-community-per-node
solution.

A logit depends only on the membership rows of its two nodes. Z is grouped
into its P distinct rows (patterns) in one place, every logit and link
probability is read from one P x P pattern-pair table summed in a fixed
order without BLAS, and the objective sums that table by pattern pair:
nodes with equal memberships get bitwise-equal logits, whatever the BLAS
thread count. A state holds Z, W and lambda only; nothing derived from
them is stored, so no step has to keep anything in step with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import AdjacencyMatrix, ObservationMask

__all__ = [
    "ModelState",
    "sigmoid",
    "softplus",
    "distinct_link_probabilities",
    "link_probability",
    "negative_log_likelihood",
    "objective",
]

# Clamp applied to exp() arguments only. Both stable forms below feed exp a
# non-positive argument, so this guards underflow noise, never overflow; the
# linear terms must see the raw logit or the saturated-entry loss -y*a +
# softplus(a) would lose its lower bound of zero.
LOGIT_CLAMP = 500.0


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|), its argument clamped at -LOGIT_CLAMP: the one exp of sigmoid and softplus.

    For e = _exp_neg_abs(x), sigmoid(x) is where(x >= 0, 1, e) / (1 + e)
    and softplus(x) is max(x, 0) + log1p(e), so a caller that needs both
    at the same x (the W step) takes the exp once.
    """
    return np.exp(np.maximum(-np.abs(x), -LOGIT_CLAMP))


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=float)
    e = _exp_neg_abs(x)
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(x):
    """log(1 + exp(x)) computed as max(x, 0) + log1p(exp(-|x|)), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(_exp_neg_abs(x))


def _entry_flags(y: AdjacencyMatrix, mask: ObservationMask) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's observed flag and link flag (observed with y = 1), flat, diagonal included."""
    return mask.observed.ravel(), (mask.observed & (y.entries == 1)).ravel()


def _group_patterns(z: np.ndarray):
    """Distinct rows of binary z, np.unique's order: patterns = z[first], z = patterns[inverse]."""
    # one byte string per row; a constant leading byte keeps it non-empty at K = 0
    keys = np.ones((z.shape[0], z.shape[1] + 1), dtype=bool)
    keys[:, 1:] = z
    _, first, inverse = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True,
                                  return_inverse=True)
    return z[first], first, inverse


def _pattern_logits(right: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Logits right patterns^T, for rows ``right`` of (other patterns) W, in feature order."""
    table = np.zeros((len(right), len(patterns)))
    for k in range(patterns.shape[1]):
        table += right[:, k, None] * patterns[:, k]
    return table


def _pattern_caches(patterns: np.ndarray, w: np.ndarray):
    """Rows patterns W and patterns W^T, and the P x P logit table (patterns W) patterns^T.

    Each sum runs over the features in index order from +0, without BLAS, so
    the bits do not depend on the thread count, and an all-zero membership
    column adds exact zeros, which leaves every sum unchanged. Every entry
    sums only its own patterns' terms, so a row or column computed alone,
    for a subset of the patterns, has the same bits.
    """
    n_pat, k_plus = patterns.shape
    side = np.zeros((n_pat, 2 * k_plus))
    stacked = np.concatenate([w, w.T], axis=1)  # row k: [w[k, :], w[:, k]]
    for k in range(k_plus):
        side += patterns[:, k, None] * stacked[k]
    return side[:, :k_plus], side[:, k_plus:], _pattern_logits(side[:, :k_plus], patterns)


@dataclass
class ModelState:
    """Binary memberships Z, interaction weights W and the penalty weight lambda.

    ``logits`` (N x N, logits[i, j] = z_i^T W z_j) is derived from (Z, W) on
    each read: the P x P pattern logit table (_pattern_caches) expanded to
    the nodes, so equal rows of Z tie exactly. It is read-only; a change to
    Z or W shows in the next read. No fitting step reads it.

    from_factors checks the factors (0/1 Z, a finite K x K W, lambda >= 0,
    infinity included) and copies them. The constructor,
    ModelState(z, w, lam), takes float arrays as they are, unchecked.

    K = 0 (Z with zero columns) is a legal state: all logits are 0 and every
    pair gets probability 0.5.
    """

    z: np.ndarray
    w: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def k_plus(self) -> int:
        return self.z.shape[1]

    @property
    def logits(self) -> np.ndarray:
        table, inverse = _node_pattern_logits(self)
        logits = table.take(inverse, axis=0).take(inverse, axis=1)
        logits.flags.writeable = False
        return logits

    @classmethod
    def from_factors(cls, z: np.ndarray, w: np.ndarray, lam: float) -> "ModelState":
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        if z.ndim != 2:
            raise ValueError("z must be 2-d")
        k = z.shape[1]
        if w.shape != (k, k):
            raise ValueError(f"w must be {k}x{k} to match z, got {w.shape}")
        if not np.isin(z, (0.0, 1.0)).all():
            raise ValueError("z entries must be 0 or 1")
        if not np.isfinite(w).all():
            raise ValueError("w entries must be finite")
        if not lam >= 0:  # rejects NaN too; an infinite lambda is legal
            raise ValueError(f"lambda must be >= 0, got {lam}")
        return cls(z.copy(), w.copy(), float(lam))

    def copy(self) -> "ModelState":
        return ModelState(self.z.copy(), self.w.copy(), self.lam)


def _node_pattern_logits(state: ModelState):
    """The P x P pattern logit table of (Z, W) and each node's pattern index into it.

    The sums run in a fixed order (see _pattern_caches): the bits depend
    only on Z and W, not on the BLAS thread count or on all-zero columns.
    """
    patterns, _, inverse = _group_patterns(state.z)
    return _pattern_caches(patterns, state.w)[2], inverse


def distinct_link_probabilities(state: ModelState, i, j):
    """Each distinct probability of the pairs (i, j) once, and each pair's index into them.

    ``i`` and ``j`` are node indices or integer index arrays (broadcast
    together); another dtype (bool, float, str) is a TypeError, and an
    index outside 0..n-1, negative ones included, an IndexError. A pair's
    probability depends only on its pattern pair, code inverse[i] * P +
    inverse[j]: the sigmoid is taken once per pattern pair that occurs,
    and those values are deduplicated by their float64 bits, so there are
    at most P^2 of them. ``values[index]`` has the bits of
    ``sigmoid(state.logits[i, j])``. Besides the per-pair codes and
    ``index``, no array is larger than the P x P logit table.
    """
    i, j = np.asarray(i), np.asarray(j)
    for a in (i, j):
        if a.dtype.kind not in "iu":
            raise TypeError(f"pair indices must be integers, got dtype {a.dtype}")
    n = state.n
    if not ((i >= 0) & (i < n) & (j >= 0) & (j < n)).all():
        raise IndexError(f"pair index out of range for n={n}")
    table, inverse = _node_pattern_logits(state)
    n_pat = len(table)
    code = inverse[i] * n_pat + inverse[j]
    occurs = np.zeros(n_pat * n_pat, dtype=bool)
    occurs[code] = True
    codes = np.flatnonzero(occurs)
    bits, slot = np.unique(sigmoid(table.ravel()[codes]).view(np.uint64), return_inverse=True)
    slot_of = np.empty(n_pat * n_pat, dtype=np.intp)
    slot_of[codes] = slot
    return bits.view(np.float64), slot_of[code]


def link_probability(state: ModelState, i, j):
    """sigma(z_i^T W z_j), read from the pattern logit table.

    ``i`` and ``j`` are node indices or integer index arrays (broadcast
    together); an int pair gives a float, arrays give an array of
    probabilities. A non-integer dtype is a TypeError, and a negative
    index is rejected, not wrapped. The values are those of
    ``sigmoid(state.logits[i, j])``, bit for bit, without building the
    N x N logits: ``values[index]`` of distinct_link_probabilities.
    """
    values, index = distinct_link_probabilities(state, i, j)
    p = values[index]
    return float(p) if p.ndim == 0 else p


class _PairStats:
    """Sufficient statistics of the cross-entropy over membership patterns.

    ``patterns`` (P x K) holds the distinct rows of Z. ``count[p, q]`` is
    the number of observed entries (i, j) with z_i = patterns[p] and
    z_j = patterns[q], and ``positives[p, q]`` the number of those with
    y_ij = 1; both are 0 on unobserved pattern pairs. The cross-entropy of
    the observed entries is then exactly sum(count * softplus(a) -
    positives * a) over the P x P pair logits a. The W step's Hessians
    share one P x K^2 pair-outer matrix (``_outer``), built from
    ``patterns`` on first use. Nothing changes the statistics after they
    are built: fit drops empty columns before it groups Z.

    ``flags``, if given, are _entry_flags(y, mask) in the dtypes a fit
    builds them in once (optimizer._MaskIndex); the counts are the same
    either way.
    """

    def __init__(self, y: AdjacencyMatrix, mask: ObservationMask, z: np.ndarray,
                 flags: tuple[np.ndarray, np.ndarray] | None = None):
        if not (y.n == mask.n == len(z)):
            raise ValueError(f"dimension mismatch: adjacency n={y.n}, mask n={mask.n}, "
                             f"z n={len(z)}")
        self.patterns, _, inverse = _group_patterns(z)
        n_pat = self.patterns.shape[0]
        observed, links = _entry_flags(y, mask) if flags is None else flags
        # one count of the observed entries per pattern pair and link flag;
        # every sum is of ones, so exact in any order
        key = (inverse[:, None] * (2 * n_pat) + 2 * inverse).ravel()
        key += links
        by_link = np.bincount(key, observed, 2 * n_pat * n_pat).reshape(n_pat, n_pat, 2)
        self.positives = by_link[..., 1].copy()
        self.count = by_link[..., 0] + self.positives

    def logits(self, w: np.ndarray) -> np.ndarray:
        """P x P pair logits patterns @ w @ patterns^T, by BLAS (for the W step)."""
        return (self.patterns @ w) @ self.patterns.T

    def loss(self, a: np.ndarray, e: np.ndarray | None = None) -> float:
        """Cross-entropy of the observed entries, given the pair logits a.

        ``e``, if given, is _exp_neg_abs(a), from which the softplus is
        taken. Summed in a fixed order without BLAS, so its bits do not
        depend on the thread count.
        """
        if e is None:
            e = _exp_neg_abs(a)
        softplus_a = np.maximum(a, 0.0) + np.log1p(e)
        return float((self.count * softplus_a).sum() - (self.positives * a).sum())

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """W-gradient of the loss at pair probabilities p = sigma(a): patterns^T R patterns.

        R = count * p - positives.
        """
        return self.patterns.T @ (self.count * p - self.positives) @ self.patterns

    def hessian(self, p: np.ndarray) -> np.ndarray:
        """K^2 x K^2 W-Hessian of the loss at pair probabilities p = sigma(a), in w.ravel() order."""
        return self._pair_gram(self.count * p * (1.0 - p))

    def observed_basis(self) -> np.ndarray:
        """Orthonormal K^2 x r basis of the W directions that move an observed pair logit.

        It spans the pair features patterns[p] (x) patterns[q] of the pairs
        with count > 0, read off the count-weighted Gram matrix, whose
        entries are integers and so exact. Every gradient and Hessian of the
        loss lives in this span.
        """
        eigenvalues, vectors = np.linalg.eigh(self._pair_gram(self.count))
        return vectors[:, eigenvalues > 1e-9 * max(eigenvalues[-1], 0.0)]

    def _pair_gram(self, v: np.ndarray) -> np.ndarray:
        """Sum of v[p, q] f f^T over the pair features f = patterns[p] (x) patterns[q].

        Entry ((k, l), (m, n)) sums v[p, q] patterns[p, k] patterns[p, m]
        patterns[q, l] patterns[q, n], so it is O^T v O, O the P x K^2
        row-wise outer products of the patterns, with its axes permuted
        from ((k, m), (l, n)).
        """
        k_plus = self.patterns.shape[1]
        h = self._outer.T @ v @ self._outer
        return h.reshape((k_plus,) * 4).transpose(0, 2, 1, 3).reshape(k_plus**2, k_plus**2)

    @cached_property
    def _outer(self) -> np.ndarray:
        """O, the P x K^2 row-wise outer products of the patterns, built on first use."""
        k_plus = self.patterns.shape[1]
        return (self.patterns[:, :, None] * self.patterns[:, None, :]).reshape(-1, k_plus**2)


def negative_log_likelihood(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState,
                            stats: _PairStats | None = None) -> float:
    """Masked Bernoulli cross-entropy, via the softplus form.

    Per observed entry: -y_ij * a_ij + softplus(a_ij), which equals
    -y log p - (1-y) log(1-p) and stays finite for saturated logits. It is
    summed by pattern pair over the pattern logit table of (Z, W) that
    ModelState.logits expands; the N x N logits are never built. ``stats``,
    if given, are the _PairStats of (y, mask, state.z), which the caller
    already holds.
    """
    if stats is None:
        stats = _PairStats(y, mask, state.z)
    return stats.loss(_pattern_caches(stats.patterns, state.w)[2])


def objective(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState,
              stats: _PairStats | None = None) -> float:
    """negative_log_likelihood (with its ``stats``) plus the community-count penalty K * lambda^2.

    A lambda whose square overflows gives an infinite objective, not an
    OverflowError.
    """
    return negative_log_likelihood(y, mask, state, stats) + state.k_plus * (state.lam * state.lam)
