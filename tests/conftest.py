"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the implementation's computation paths:
the objective oracle uses direct -y log p - (1-y) log(1-p) sums instead of
the softplus form, the AUC oracle enumerates positive/negative pairs (and
``oracle_rank_auc`` gives the scipy average-rank formula's exact bits), and
gradient checks use central finite differences. The W-step oracle is the
damped Newton over the individual observed entries that the pattern-pair W
step must reproduce. The pattern sweep oracle scores one (n, k) flip at a
time, from partner counts taken afresh from Z, in the order the screened,
batched sweep must reproduce flip for flip; it reads the pattern logits
from model._pattern_caches, whose bits the sweep's growing table must
keep. The entrywise sweep oracle sums each flip's delta over the
individual observed entries, read from N x N logits and N x K row caches
of its own (oracle_caches) that it patches flip by flip, which the
pattern kernel must match within its rounding bound. The split, scoring
and file oracles are the one-entry-at-a-time and one-line-at-a-time loops
whose output (and, for the parsers, whose ParseError message and line)
the array versions must reproduce exactly. The generator oracles draw the
buffet by concatenation and the edges from the N x N sigmoid of
ModelState.logits in one (n, n) uniform draw; the samplers must give
their bytes and leave the generator in their state.

The math helpers below them serve only as references for package code:
the exact W-gradient, the logit-coherence check, the Bernoulli Bregman
divergence (whose sum over observed entries the objective must equal) and
the scaled log-partition (whose derivatives the package's softplus must
give). Fitting uses none of them. Two helpers run package code:
``sweep_to_fixed_point``, the screened sweep, for tests that need a
one-flip fixed point, and ``delta_objective_flip``, one flip delta of the
sweep's kernel, for tests that check it against the oracles.
"""

import io
import math
import re

import numpy as np
import pytest
from scipy.stats import rankdata

from laftr import AdjacencyMatrix, ModelState, NumericalError, ObservationMask, ParseError
from laftr import optimizer
from laftr.graph import _pair_rows, _unpad
from laftr.model import _group_patterns, _pattern_caches, sigmoid, softplus
from laftr.optimizer import FLIP_TOLERANCE


def oracle_nll(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> float:
    """Direct log-form cross-entropy over observed entries (no softplus)."""
    logits = (state.z @ state.w) @ state.z.T
    p = 1.0 / (1.0 + np.exp(-logits))
    q = 1.0 / (1.0 + np.exp(logits))  # 1 - p, finite in log for saturated logits
    terms = -y.entries * np.log(p) - (1 - y.entries) * np.log(q)
    return float(terms[mask.observed].sum())


def oracle_objective(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> float:
    return oracle_nll(y, mask, state) + state.k_plus * state.lam**2


def _oracle_entry_terms(y, mask, z, w) -> np.ndarray:
    """Each observed entry's -y log p - (1-y) log(1-p), the logs taken as -logaddexp(0, -+a).

    The logits z_i^T W z_j are summed entry by entry (einsum), so an entry's
    bits depend on its own two rows of z only.
    """
    logits = np.einsum("ik,kl,jl->ij", z, w, z)
    terms = np.where(y.entries == 1, np.logaddexp(0.0, -logits), np.logaddexp(0.0, logits))
    return terms[mask.observed]


def oracle_flip_delta(y, mask, state, n, k) -> float:
    """Objective change from flipping z[n, k], by recomputing every observed entry's term.

    The two term lists are differenced and summed exactly (math.fsum):
    entries off row and column n keep their bits and cancel, so the delta is
    as accurate as n's own terms even where the objective is large or the
    logits saturate.
    """
    z_flipped = state.z.copy()
    z_flipped[n, k] = 1.0 - z_flipped[n, k]
    before, after = (_oracle_entry_terms(y, mask, z, state.w) for z in (state.z, z_flipped))
    return math.fsum(np.concatenate([after, -before]))


def exhaustive_flip_improvements(y, mask, state) -> np.ndarray:
    """Objective deltas of every single z-coordinate flip, by recompute."""
    deltas = np.zeros(state.z.shape)
    for n in range(state.z.shape[0]):
        for k in range(state.z.shape[1]):
            deltas[n, k] = oracle_flip_delta(y, mask, state, n, k)
    return deltas


def _softplus_scalar(a: float) -> float:
    return max(a, 0.0) + math.log1p(math.exp(max(-abs(a), -500.0)))


def oracle_caches(z, w):
    """N x N logits, N x K left = Z W^T and right = Z W, with the bits of ModelState.logits.

    All three expand the pattern tables of model._pattern_caches to the
    nodes, so equal rows of z tie exactly. The arrays are the caller's to
    patch (_flip_patched).
    """
    patterns, _, inverse = _group_patterns(z)
    right, left, table = _pattern_caches(patterns, w)
    return table.take(inverse, axis=0).take(inverse, axis=1), left[inverse], right[inverse]


def _flip_patched(state: ModelState, caches, n: int, k: int) -> None:
    """Flip z[n, k] and patch the oracle caches' logit row/column n and cache row n in place."""
    logits, left, right = caches
    d = 1.0 - 2.0 * state.z[n, k]
    logits[n, :] += d * left[:, k]
    logits[:, n] += d * right[:, k]
    # the two updates above already contributed d*(left + right) at (n, n)
    logits[n, n] += state.w[k, k]
    left[n, :] += d * state.w[:, k]
    right[n, :] += d * state.w[k, :]
    state.z[n, k] += d


def oracle_flip_score(y, mask, state, caches, n, k):
    """Delta and mass (see optimizer._sweep) of flipping z[n, k], entry by entry on the caches.

    The delta sums over the observed entries of row and column n, read from
    ``caches`` (oracle_caches of the state, or those patched since), with a
    scalar diagonal term.
    """
    obs, yv, w = mask.observed, y.entries, state.w
    logits, left_cache, right_cache = caches
    js = np.flatnonzero(obs[n])
    js = js[js != n]
    is_ = np.flatnonzero(obs[:, n])
    is_ = is_[is_ != n]
    y_all = np.concatenate([yv[n, js], yv[is_, n]]).astype(float)
    a_all = np.concatenate([logits[n, js], logits[is_, n]])
    d = 1.0 - 2.0 * state.z[n, k]
    da = d * np.concatenate([left_cache[js, k], right_cache[is_, k]])
    sp_new, sp_old = float(softplus(a_all + da).sum()), float(softplus(a_all).sum())
    delta = sp_new - sp_old - float(y_all @ da)
    mass = sp_new + sp_old + float(y_all @ np.abs(da)) + len(y_all)
    if obs[n, n]:
        left, right = left_cache[n, k], right_cache[n, k]
        a_nn, da_nn = float(logits[n, n]), d * (left + right) + w[k, k]
        sp_x, sp_nn = _softplus_scalar(a_nn + da_nn), _softplus_scalar(a_nn)
        delta += -float(yv[n, n]) * da_nn + sp_x - sp_nn
        mass += sp_x + sp_nn + abs(left) + abs(right) + abs(w[k, k]) + 1.0
    return delta, mass


def oracle_sweep_pass(y, mask, state, caches) -> bool:
    """The sweep pass scoring one (n, k) at a time, entry by entry on patched caches.

    Row-major order; a flip improves when its delta plus beta times its mass
    (the delta's rounding bound, see optimizer._sweep) is below
    -FLIP_TOLERANCE, and every improving flip is taken and patches
    ``caches`` (oracle_caches of the state, kept across passes) by
    _flip_patched.
    """
    n_nodes, k_plus = state.z.shape
    beta = optimizer._rounding_beta(n_nodes)
    improved = False
    for n in range(n_nodes):
        for k in range(k_plus):
            delta, mass = oracle_flip_score(y, mask, state, caches, n, k)
            if delta + beta * mass < -FLIP_TOLERANCE:
                _flip_patched(state, caches, n, k)
                improved = True
    return improved


def sweep_patterns(z) -> list:
    """The pattern list a sweep starts from: the distinct rows of z in _group_patterns' order."""
    return [tuple(row) for row in _group_patterns(z)[0]]


def oracle_pattern_score(y, mask, z, w, patterns: list, n: int, k: int):
    """Delta and mass of flipping z[n, k] from fresh partner counts, in the kernel's arithmetic.

    It recomputes the pattern logit table (model._pattern_caches) of the
    rows in ``patterns`` and counts n's partners by pattern from z, then
    sums the flip's terms over the partner columns in the kernel's order:
    for each pattern q, its row side, then its column side. ``patterns``
    lists the rows of z in the sweep's pattern order, which fixes that
    order: sweep_patterns(z), then each new row as a flip first makes it.
    """
    n_nodes, n_pat = len(z), len(patterns)
    right, left, logits = _pattern_caches(np.array(patterns), w)
    pat = np.array([patterns.index(tuple(row)) for row in z])
    obs = mask.observed & ~np.eye(n_nodes, dtype=bool)
    c, c_pos = (np.stack([np.bincount(pat[m[n]], minlength=n_pat),
                          np.bincount(pat[m[:, n]], minlength=n_pat)], axis=1).ravel().astype(float)
                for m in (obs, obs & (y.entries == 1)))
    p, sign = pat[n], 1.0 - 2.0 * z[n, k]
    a = np.stack([logits[p], logits[:, p]], axis=1).ravel()
    s = sign * np.stack([left[:, k], right[:, k]], axis=1).ravel()
    sp_x, sp_a = softplus(a + s), softplus(a)
    delta = (c * (sp_x - sp_a) - c_pos * s).sum()
    mass = (c * (sp_x + sp_a + 1.0) + c_pos * np.abs(s)).sum()
    if mask.observed[n, n]:
        da = sign * (left[p, k] + right[p, k]) + w[k, k]
        sp_x, sp_a = softplus(logits[p, p] + da), softplus(logits[p, p])
        delta += -float(y.entries[n, n]) * da + sp_x - sp_a
        mass += sp_x + sp_a + abs(left[p, k]) + abs(right[p, k]) + abs(w[k, k]) + 1.0
    return delta, mass


def oracle_pattern_sweep_pass(y, mask, state, apply: bool, patterns: list) -> bool:
    """The sweep pass scoring one (n, k) at a time with oracle_pattern_score.

    Row-major order and the kernel's acceptance rule: a flip improves when
    delta + beta * mass < -FLIP_TOLERANCE. ``patterns`` is the sweep's
    pattern list (see oracle_pattern_score); pass one list to every pass of
    a sweep, and a flip that makes a new row appends it. Flips state.z in
    place. With apply=False the scan stops at the first improving flip.
    """
    z = state.z
    beta = optimizer._rounding_beta(len(z))
    improved = False
    for n in range(z.shape[0]):
        for k in range(z.shape[1]):
            delta, mass = oracle_pattern_score(y, mask, z, state.w, patterns, n, k)
            if delta + beta * mass < -FLIP_TOLERANCE:
                if not apply:
                    return True
                z[n, k] = 1.0 - z[n, k]
                if tuple(z[n]) not in patterns:
                    patterns.append(tuple(z[n]))
                improved = True
    return improved


def oracle_pattern_sweep(y, mask, state) -> bool:
    """oracle_pattern_sweep_pass to a fixed point; True if any pass flipped anything.

    The reference for the package's screened sweep, optimizer._sweep.
    """
    patterns = sweep_patterns(state.z)
    improved = False
    while oracle_pattern_sweep_pass(y, mask, state, True, patterns):
        improved = True
    return improved


def sweep_to_fixed_point(y, mask, state) -> bool:
    """The package's screened sweep run to a one-flip fixed point; True if anything flipped."""
    return optimizer._sweep(optimizer._MaskIndex(y, mask), state)


def delta_objective_flip(y, mask, state, n, k) -> float:
    """Q(state with z[n, k] flipped) - Q(state) by the sweep's kernel: entry k of n's delta row."""
    return float(optimizer._DeltaTable(optimizer._MaskIndex(y, mask), state).scores(n)[0][k])


def nll_gradient_w(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> np.ndarray:
    """Exact gradient of the masked cross-entropy w.r.t. W.

    G[k, k'] = sum over observed (i,j) of (p_ij - y_ij) * z[i,k] * z[j,k'],
    computed as Z^T R Z with R the masked residual matrix.
    """
    residual = (sigmoid(state.logits) - y.entries) * mask.observed
    return state.z.T @ residual @ state.z


def max_logit_error(state: ModelState) -> float:
    """Largest absolute deviation of any logit of ``state`` from z_i^T W z_j."""
    return float(np.abs((state.z @ state.w) @ state.z.T - state.logits).max(initial=0.0))


def bernoulli_bregman(x, q):
    """Bregman divergence of x from a Bernoulli mean q, for phi(x) = x log x + (1-x) log(1-x).

    d(x, q) = x log(x/q) + (1-x) log((1-x)/(1-q)), with the 0 log 0 = 0
    convention at the endpoints. For binary x this is exactly the
    cross-entropy -x log q - (1-x) log(1-q): the divergence and the
    likelihood agree with no leftover carrier term because phi(0) = phi(1) = 0.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise ValueError("q must lie strictly inside (0, 1)")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("x must lie in [0, 1]")

    # evaluate x*log(x) style terms with the endpoint convention, no warnings
    safe_x = np.where(x > 0.0, x, 1.0)
    term_x = np.where(x > 0.0, x * (np.log(safe_x) - np.log(q)), 0.0)
    safe_1x = np.where(x < 1.0, 1.0 - x, 1.0)
    term_1x = np.where(x < 1.0, (1.0 - x) * (np.log(safe_1x) - np.log1p(-q)), 0.0)
    out = term_x + term_1x
    return float(out) if out.ndim == 0 else out


def scaled_log_partition(eta_tilde, beta: float):
    """Log-partition of the Bernoulli scaled by beta: beta * log(1 + exp(eta/beta)).

    Its first derivative in eta_tilde is sigma(eta_tilde/beta) (the mean q,
    independent of beta); its second is q(1-q)/beta (variance shrinking as
    beta grows). beta never enters the fitted model: the objective is the
    beta -> infinity limit taken analytically.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    eta_tilde = np.asarray(eta_tilde, dtype=float)
    out = beta * softplus(eta_tilde / beta)
    return float(out) if out.ndim == 0 else out


def oracle_optimize_w(y, mask, state, stats=None):
    """optimize_w's damped Newton, run over the individual observed entries.

    Same damping, solve span, descent fallback, Armijo rule, stall guard
    and stopping rules as the library's W step, but on flat
    per-observed-entry logit vectors: the gradient is Z^T R Z from the
    N x N residual matrix R, and the Hessian sums v x x^T over the entries,
    with x = z_i (x) z_j the entry's K^2 features and v = sigma(a)(1 -
    sigma(a)). The solve runs in the span of those features, read off their
    Gram matrix. ``stats``, optimize_w's pattern-pair statistics, is not read.
    """
    if state.k_plus == 0:
        return state
    z = state.z
    k = state.k_plus
    obs_i, obs_j = np.nonzero(mask.observed)
    y_obs = y.entries[obs_i, obs_j].astype(float)
    features = (z[obs_i][:, :, None] * z[obs_j][:, None, :]).reshape(-1, k * k)
    gram_values, gram_vectors = np.linalg.eigh(features.T @ features)
    basis = gram_vectors[:, gram_values > 1e-9 * max(gram_values[-1], 0.0)]
    w = state.w.copy()

    a_obs = features @ w.ravel()
    f = float(softplus(a_obs).sum() - y_obs @ a_obs)
    if not np.isfinite(f):
        raise NumericalError("non-finite objective entering the W step", state)

    n = state.n
    residual_full = np.zeros((n, n))
    for _ in range(optimizer.W_MAX_STEPS):
        p = sigmoid(a_obs)
        residual_full[obs_i, obs_j] = p - y_obs
        grad = z.T @ residual_full @ z
        if np.abs(grad).max() < optimizer.W_GRAD_TOL:
            break
        hess = features.T @ ((p * (1.0 - p))[:, None] * features)
        damping = 1e-8 * max(1.0, np.trace(hess) / k**2)
        reduced = basis.T @ hess @ basis + damping * np.eye(basis.shape[1])
        try:
            d = (basis @ np.linalg.solve(reduced, -(basis.T @ grad.ravel()))).reshape(k, k)
            slope = float((grad * d).sum())
        except np.linalg.LinAlgError:
            slope = math.nan
        if not -math.inf < slope < 0.0:
            d, slope = -grad, -float((grad * grad).sum())
        d_obs = features @ d.ravel()

        step = 1.0
        accepted = False
        while step > 1e-20:
            a_new = a_obs + step * d_obs
            f_new = float(softplus(a_new).sum() - y_obs @ a_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted or f_new >= f:
            break
        w += step * d
        a_obs = a_new
        if (f - f_new) < 1e-12 * max(1.0, abs(f)):
            break
        f = f_new
    state.w = w
    return state


def oracle_split_observations(adj: AdjacencyMatrix, train_fraction, seed, tie_symmetric):
    """split_observations over a list of (i, j) unit tuples, dealt one by one."""
    n = adj.n
    rng = np.random.default_rng(seed)
    if tie_symmetric:
        units = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        units = [(i, j) for i in range(n) for j in range(n) if i != j]
    m = len(units)
    n_train = int(math.floor(train_fraction * m + 1e-9))
    order = rng.permutation(m)

    train = np.zeros((n, n), dtype=bool)
    test = np.zeros((n, n), dtype=bool)
    for rank, unit_idx in enumerate(order):
        i, j = units[unit_idx]
        target = train if rank < n_train else test
        target[i, j] = True
        if tie_symmetric:
            target[j, i] = True
    return ObservationMask(n, train), ObservationMask(n, test)


def oracle_cv_folds(y: AdjacencyMatrix, train_mask: ObservationMask, folds: int, seed: int):
    """cross_validate_lambda's (train, validation) mask of every fold, dealt from an argwhere unit list.

    A symmetric mask is dealt by its upper triangle and each validation
    fold mirrored; single-class folds are kept, not skipped.
    """
    observed = train_mask.observed
    symmetric = np.array_equal(observed, observed.T)
    units = np.argwhere(np.triu(observed) if symmetric else observed)
    rng = np.random.default_rng(seed)
    out = []
    for chunk in np.array_split(rng.permutation(len(units)), folds):
        rows, cols = units[chunk, 0], units[chunk, 1]
        val = np.zeros((y.n, y.n), dtype=bool)
        val[rows, cols] = True
        if symmetric:
            val[cols, rows] = True
        out.append((observed & ~val, val))
    return out


def oracle_sample_ibp(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """sample_ibp as lists of rows, concatenated customer by customer, from the same draws."""
    rows: list[np.ndarray] = []
    counts = np.zeros(0, dtype=np.int64)
    for i in range(1, n + 1):
        k = counts.size
        taken = np.zeros(k, dtype=np.int8)
        if k:
            taken = (rng.random(k) < counts / i).astype(np.int8)
        n_new = int(rng.poisson(alpha / i))
        rows.append(np.concatenate([taken, np.ones(n_new, dtype=np.int8)]))
        counts = np.concatenate([counts + taken, np.ones(n_new, dtype=np.int64)])
    z = np.zeros((n, counts.size), dtype=np.int8)
    for i, row in enumerate(rows):
        z[i, : row.size] = row
    return z


def oracle_sample_edges(z, w, rng: np.random.Generator) -> AdjacencyMatrix:
    """sample_edges from the N x N sigmoid of ModelState.logits and one (n, n) uniform draw."""
    probs = sigmoid(ModelState.from_factors(z, w, 0.0).logits)
    n = probs.shape[0]
    y = (rng.random((n, n)) < probs).astype(np.int8)
    np.fill_diagonal(y, 0)
    return AdjacencyMatrix(n, y, symmetric_hint=bool((y == y.T).all()))


def oracle_write_mask(train: ObservationMask, test: ObservationMask) -> str:
    """write_mask formatted one entry at a time."""
    lines = []
    either = train.observed | test.observed
    for i, j in np.argwhere(either):
        lines.append(f"{i} {j} {1 if train.observed[i, j] else 0}")
    return "\n".join(lines) + "\n"


def _oracle_data_lines(stream):
    """(line number, stripped line) of every line that is neither blank nor a '#' comment."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def oracle_int(token: str) -> int:
    """A file token's value: ASCII digits after an optional '+'; any other token is a ValueError."""
    if not re.fullmatch(r"\+?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def oracle_load_dense_matrix(stream) -> AdjacencyMatrix:
    """load_dense_matrix parsed one line and one token at a time."""
    rows: list[list[int]] = []
    row_lines: list[int] = []
    for lineno, line in _oracle_data_lines(stream):
        tokens = line.split()
        try:
            row = [oracle_int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"non-integer token in row {line!r}", lineno) from None
        if any(v not in (0, 1) for v in row):
            raise ParseError("matrix tokens must be 0 or 1", lineno)
        rows.append(row)
        row_lines.append(lineno)

    if not rows:
        raise ParseError("empty matrix file")
    size = len(rows)
    for row, lineno in zip(rows, row_lines):
        if len(row) != size:
            raise ParseError(f"ragged row: expected {size} tokens, got {len(row)}", lineno)
    entries = np.array(rows, dtype=np.int8)
    symmetric = bool((entries == entries.T).all())
    return AdjacencyMatrix(size, entries, symmetric_hint=symmetric)


def oracle_load_edge_list(stream, n=None) -> AdjacencyMatrix:
    """load_edge_list parsed one line at a time, with a dict of the values seen."""
    edges: dict[tuple[int, int], int] = {}
    max_id = -1
    for lineno, line in _oracle_data_lines(stream):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'src dst [value]', got {line!r}", lineno)
        try:
            src, dst = oracle_int(parts[0]), oracle_int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {line!r}", lineno) from None
        if n is not None and (src >= n or dst >= n):
            raise ParseError(f"node id out of range (n={n}) in {line!r}", lineno)
        if max(src, dst) >= 2**63:
            raise ParseError(f"node id too large in {line!r}", lineno)
        value = 1
        if len(parts) == 3:
            try:
                value = oracle_int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer edge value in {line!r}", lineno) from None
            if value not in (0, 1):
                raise ParseError(f"edge value must be 0 or 1, got {value}", lineno)
        if edges.setdefault((src, dst), value) != value:
            raise ParseError(f"conflicting value for pair ({src}, {dst}) in {line!r}", lineno)
        max_id = max(max_id, src, dst)

    if n is None and max_id < 0:
        raise ParseError("cannot infer node count from an empty edge list; pass n")
    size = n if n is not None else max_id + 1
    entries = np.zeros((size, size), dtype=np.int8)
    for (src, dst), value in edges.items():
        entries[src, dst] = value
    return AdjacencyMatrix(size, entries, symmetric_hint=False)


def oracle_load_mask(stream, n: int) -> tuple[ObservationMask, ObservationMask]:
    """load_mask parsed one line at a time, each pair checked against both masks so far."""
    train = np.zeros((n, n), dtype=bool)
    test = np.zeros((n, n), dtype=bool)
    for lineno, line in _oracle_data_lines(stream):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'i j flag', got {line!r}", lineno)
        try:
            i, j, flag = oracle_int(parts[0]), oracle_int(parts[1]), oracle_int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", lineno) from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"index out of range (n={n}) in {line!r}", lineno)
        if flag not in (0, 1):
            raise ParseError(f"mask flag must be 0 or 1, got {flag}", lineno)
        if (test if flag == 1 else train)[i, j]:
            raise ParseError(f"conflicting flag for pair ({i}, {j}) in {line!r}", lineno)
        (train if flag == 1 else test)[i, j] = True
    return ObservationMask(n, train), ObservationMask(n, test)


def oracle_write_dense(adj: AdjacencyMatrix) -> str:
    """write_dense formatted one entry at a time."""
    return "\n".join(" ".join(str(int(v)) for v in row) for row in adj.entries) + "\n"


def oracle_load_pairs(stream, n: int) -> np.ndarray:
    """The pairs file of `laftr predict` parsed one line at a time, as an (M, 2) array."""
    pairs = []
    for lineno, line in _oracle_data_lines(stream):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ParseError(f"expected 'i j', got {line!r}", lineno)
        try:
            i, j = oracle_int(parts[0]), oracle_int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer pair in {line!r}", lineno) from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"pair index out of range (n={n}) in {line!r}", lineno)
        pairs.append((i, j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def oracle_write_predictions(pairs: np.ndarray, probs, n: int) -> str:
    """The predictions CSV with every row's probability formatted by one %-format call."""
    out = _pair_rows(pairs[:, 0], pairs[:, 1], n, b",", b",%.17g\n")
    return "i,j,probability\n" + _unpad(out) % tuple(probs)


def parse_outcome(parse, text, *args, as_lines=False):
    """What a parser makes of ``text``: its result, or its ParseError's (message, line).

    The parser reads a text stream, or with ``as_lines`` the list of lines
    that iterating one yields; ``text`` given as bytes is a binary stream.
    """
    if isinstance(text, bytes):
        source = io.BytesIO(text)
    else:
        source = io.StringIO(text).readlines() if as_lines else io.StringIO(text)
    try:
        return parse(source, *args)
    except ParseError as exc:
        return str(exc), exc.line_number


def oracle_link_probabilities(state: ModelState, pairs) -> list[float]:
    """Per-pair scalar sigmoid of the state's logits, in input order."""
    return [float(sigmoid(state.logits[i, j])) for i, j in pairs]


def oracle_auc(scores, labels) -> float:
    """Pairwise enumeration: concordant pairs plus half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_rank_auc(scores, labels) -> float:
    """Mann-Whitney U from scipy's average ranks, the formula whose bits the AUC must keep."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    u = float(rankdata(scores)[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def random_instance(rng, n, k, density=0.4):
    """Random adjacency, full off-diagonal mask, and a random coherent state."""
    entries = (rng.random((n, n)) < density).astype(np.int8)
    np.fill_diagonal(entries, 0)
    y = AdjacencyMatrix(n, entries)
    mask = ObservationMask.full(n)
    z = (rng.random((n, k)) < 0.5).astype(float)
    w = rng.normal(0.0, 1.0, (k, k))
    state = ModelState.from_factors(z, w, lam=0.5)
    return y, mask, state


def assert_monotone_trace(report, slack=1e-9):
    trace = np.asarray(report.objective_trace)
    assert trace.size > 0
    assert (np.diff(trace) <= slack).all(), f"objective trace increased: {trace}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
