"""Link probabilities and the masked cross-entropy objective.

The model scores a directed pair (i, j) with a bilinear logit z_i^T W z_j,
where z_i is node i's binary community-membership row and W is a real
community-interaction matrix. The fitting objective is

    Q(W, Z) = sum over observed (i,j) of [-y_ij * a_ij + softplus(a_ij)]
              + K * lambda^2

with a_ij the logit and K the current number of communities. The
penalty charges lambda^2 per community, which is what stops the trivial
one-community-per-node solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AdjacencyMatrix, ObservationMask

__all__ = [
    "ModelState",
    "sigmoid",
    "softplus",
    "link_probability",
    "negative_log_likelihood",
    "objective",
]

# Clamp applied to exp() arguments only. Both stable forms below feed exp a
# non-positive argument, so this guards underflow noise, never overflow; the
# linear terms must see the raw logit or the saturated-entry loss -y*a +
# softplus(a) would lose its lower bound of zero.
LOGIT_CLAMP = 500.0


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=float)
    e = np.exp(np.maximum(-np.abs(x), -LOGIT_CLAMP))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x):
    """log(1 + exp(x)) computed as max(x, 0) + log1p(exp(-|x|)), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(np.maximum(-np.abs(x), -LOGIT_CLAMP)))


@dataclass
class ModelState:
    """Binary memberships Z, interaction weights W, and derived caches.

    Caches (kept coherent by every mutating operation in the optimizer):

    - ``logits``:      N x N, logits[i, j] = z_i^T W z_j
    - ``left_cache``:  N x K, left_cache[j, k] = W[k, :] . z_j   (= Z W^T)
    - ``right_cache``: N x K, right_cache[i, k] = z_i . W[:, k]  (= Z W)

    Flipping z[n, k] shifts logit row n by +-left_cache[:, k] and column n
    by +-right_cache[:, k], which is what makes single-coordinate moves
    O(N) instead of a full recompute.

    K = 0 (Z with zero columns) is a legal state: all logits are 0 and every
    pair gets probability 0.5.
    """

    z: np.ndarray
    w: np.ndarray
    lam: float
    logits: np.ndarray
    left_cache: np.ndarray
    right_cache: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def k_plus(self) -> int:
        return self.z.shape[1]

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
        if lam < 0:
            raise ValueError(f"lambda must be >= 0, got {lam}")
        state = cls(z=z.copy(), w=w.copy(), lam=float(lam),
                    logits=None, left_cache=None, right_cache=None)  # type: ignore[arg-type]
        state.rebuild_caches()
        return state

    def rebuild_caches(self) -> None:
        """Recompute right/left caches and logits ((Z W) Z^T, in that order)."""
        self.right_cache = self.z @ self.w
        self.left_cache = self.z @ self.w.T
        self.logits = self.right_cache @ self.z.T

    def copy(self) -> "ModelState":
        return ModelState(
            z=self.z.copy(),
            w=self.w.copy(),
            lam=self.lam,
            logits=self.logits.copy(),
            left_cache=self.left_cache.copy(),
            right_cache=self.right_cache.copy(),
        )


def _check_dims(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> None:
    if not (y.n == mask.n == state.n):
        raise ValueError(
            f"dimension mismatch: adjacency n={y.n}, mask n={mask.n}, state n={state.n}"
        )


def link_probability(state: ModelState, i, j):
    """sigma(z_i^T W z_j), read from the logit cache.

    ``i`` and ``j`` are node indices or integer index arrays (broadcast
    together); an int pair gives a float, arrays give an array of
    probabilities. Negative indices are rejected, not wrapped.
    """
    i, j = np.asarray(i), np.asarray(j)
    n = state.n
    if not ((i >= 0) & (i < n) & (j >= 0) & (j < n)).all():
        raise IndexError(f"pair index out of range for n={n}")
    p = sigmoid(state.logits[i, j])
    return float(p) if p.ndim == 0 else p


def negative_log_likelihood(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> float:
    """Masked Bernoulli cross-entropy, via the softplus form.

    Per observed entry: -y_ij * a_ij + softplus(a_ij), which equals
    -y log p - (1-y) log(1-p) and stays finite for saturated logits.
    """
    _check_dims(y, mask, state)
    a = state.logits
    yv = y.entries
    terms = -yv * a + softplus(a)
    return float(terms[mask.observed].sum())


def objective(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> float:
    """negative_log_likelihood plus the community-count penalty K * lambda^2."""
    return negative_log_likelihood(y, mask, state) + state.k_plus * state.lam**2
