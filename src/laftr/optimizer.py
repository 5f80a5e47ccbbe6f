"""Greedy alternating minimization of the penalized cross-entropy objective.

One outer iteration: sweep the binary membership coordinates to a one-flip
fixed point, descend on W (convex for fixed Z), prune communities nobody
belongs to, then propose growing the model by one community and keep the
grown model only if it lowers the objective. Every move is a descent move,
so the objective trace is non-increasing and the loop reaches a local
minimum in finitely many iterations.

Coordinate moves are evaluated without touching the full N x N logit matrix:
flipping z[n, k] shifts logit row n by +-left_cache[:, k] and column n by
+-right_cache[:, k], so the objective delta is a sum of O(N)
softplus-difference terms over the M observed entries of row/column n. The
sweep scores all K flips of node n in one softplus pass over a K x M block
of those shifts, takes the first improving k and re-scores only the
features after it, so it accepts exactly the flips of a one-at-a-time scan.

The W step never touches the N x N matrices either. A logit depends only on
the membership rows of its two nodes, so for fixed Z the observed entries
collapse into pattern pairs: with P distinct rows of Z, the W-subproblem is
a logistic fit over P x P pairs weighted by their observed and positive
counts, gathered in one pass over the observed entries. Each descent step
then costs O(P^2 K) instead of O(N^2 K), with the same iterates up to
floating-point summation order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .graph import AdjacencyMatrix, ObservationMask
from .model import ModelState, objective, sigmoid, softplus

__all__ = [
    "FitConfig",
    "FitReport",
    "init_state",
    "delta_objective_flip",
    "sweep_z",
    "optimize_w",
    "propose_feature",
    "prune_empty_features",
    "fit",
]

# Strict-improvement margin for accepting a coordinate flip or a grown model.
# Exact arithmetic would accept any negative delta; the margin prevents
# cycling on floating-point ties.
FLIP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters and stopping rules for :func:`fit`.

    lam is the per-community penalty weight (the objective charges lam^2 per
    community); sigma_w scales the Gaussian initialization of W entries.
    """

    lam: float = 0.5
    sigma_w: float = 1.0
    k_init: int = 1
    max_outer_iters: int = 100
    rel_tol: float = 1e-6
    w_max_steps: int = 200
    w_grad_tol: float = 1e-6
    seed: int = 0
    births_per_iter: int = 1
    include_diagonal: bool = False

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.sigma_w <= 0:
            raise ValueError(f"sigma_w must be positive, got {self.sigma_w}")
        if self.k_init < 1:
            raise ValueError(f"k_init must be >= 1, got {self.k_init}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.w_max_steps < 1:
            raise ValueError(f"w_max_steps must be >= 1, got {self.w_max_steps}")
        if self.w_grad_tol <= 0:
            raise ValueError(f"w_grad_tol must be positive, got {self.w_grad_tol}")
        if self.births_per_iter < 0:
            raise ValueError(f"births_per_iter must be >= 0, got {self.births_per_iter}")


@dataclass
class FitReport:
    """Per-outer-iteration trace of a fit run.

    objective_trace is non-increasing (within 1e-9 slack); elapsed holds each
    iteration's wall-clock duration in seconds.
    """

    objective_trace: list[float] = field(default_factory=list)
    k_trace: list[int] = field(default_factory=list)
    accepted_births: list[bool] = field(default_factory=list)
    elapsed: list[float] = field(default_factory=list)
    converged: bool = False
    final_state: ModelState | None = None


def init_state(n: int, config: FitConfig, rng: np.random.Generator | None = None) -> ModelState:
    """Fair-coin Z (n x k_init) and Gaussian(0, sigma_w^2) W, from the seeded RNG."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    z = (rng.random((n, config.k_init)) < 0.5).astype(float)
    w = rng.normal(0.0, config.sigma_w, (config.k_init, config.k_init))
    return ModelState.from_factors(z, w, config.lam)


class _MaskIndex:
    """Precomputed per-node gather indices of the observed entries.

    Node n's working vector is the observed entries (n, j), j != n, of row n
    followed by the observed entries (i, n), i != n, of column n.
    ``logit_idx[n]`` holds their flat positions in the N x N logit matrix,
    ``shift_idx[n]`` their columns in the K x 2N shift table
    [left_cache; right_cache]^T (column j moves logit (n, j), column N + i
    logit (i, n)), and ``rowcol_y[n]`` their y values. ``diag_observed``
    and ``diag_y`` describe (n, n) itself. Built once per fit; the mask and
    y never change during a run.
    """

    def __init__(self, y: AdjacencyMatrix, mask: ObservationMask):
        obs = mask.observed.copy()
        np.fill_diagonal(obs, False)
        yv = y.entries
        n = mask.n
        self.logit_idx: list[np.ndarray] = []
        self.shift_idx: list[np.ndarray] = []
        self.rowcol_y: list[np.ndarray] = []
        self.diag_observed = np.diagonal(mask.observed).copy()
        self.diag_y = np.diagonal(yv).astype(float)
        for node in range(n):
            js = np.flatnonzero(obs[node])
            is_ = np.flatnonzero(obs[:, node])
            self.logit_idx.append(np.concatenate([node * n + js, is_ * n + node]))
            self.shift_idx.append(np.concatenate([js, n + is_]))
            self.rowcol_y.append(np.concatenate([yv[node, js], yv[is_, node]]).astype(float))


def _gather(idx: _MaskIndex, table: np.ndarray, state: ModelState, n: int):
    """Node n's logits a, shift block, y . block rows, softplus(a).sum(), logit (n, n).

    Row k of the C-order K x M block is the shift that flipping z[n, k]
    adds to a.
    """
    a = state.logits.take(idx.logit_idx[n])
    shifts = table.take(idx.shift_idx[n], axis=1)
    shifts *= (1.0 - 2.0 * state.z[n])[:, None]
    return a, shifts, np.vecdot(shifts, idx.rowcol_y[n]), softplus(a).sum(), state.logits[n, n]


def _flip_deltas(idx, state, n, a, shifts, ydot, sp_a, a_nn, start):
    """Objective deltas of flipping z[n, k] for each k >= start.

    One softplus pass over the block rows, summed per row, so each delta
    keeps numpy's 1-D pairwise summation. Also returns each row's softplus
    sum and the diagonal logit's shifts (None if (n, n) is unobserved).
    """
    sp_rows = softplus(a + shifts[start:]).sum(axis=1)
    delta = sp_rows - sp_a - ydot[start:]
    da_nn = None
    if idx.diag_observed[n]:
        # the diagonal logit is quadratic in z[n, k]: both caches shift it,
        # plus the d^2 = 1 self-term w[k, k]
        d = 1.0 - 2.0 * state.z[n, start:]
        da_nn = d * (state.left_cache[n, start:] + state.right_cache[n, start:])
        da_nn += np.diagonal(state.w)[start:]
        delta += -idx.diag_y[n] * da_nn + softplus(a_nn + da_nn) - softplus(a_nn)
    return delta, sp_rows, da_nn


def _apply_flip(state: ModelState, n: int, k: int) -> None:
    """Flip z[n, k] and patch logits row/column n and cache row n in place."""
    d = 1.0 - 2.0 * state.z[n, k]
    state.logits[n, :] += d * state.left_cache[:, k]
    state.logits[:, n] += d * state.right_cache[:, k]
    # the two updates above already contributed d*(left + right) at (n, n)
    state.logits[n, n] += state.w[k, k]
    state.left_cache[n, :] += d * state.w[:, k]
    state.right_cache[n, :] += d * state.w[k, :]
    state.z[n, k] += d


def delta_objective_flip(
    y: AdjacencyMatrix, mask: ObservationMask, state: ModelState, n: int, k: int
) -> float:
    """Q(state with z[n,k] flipped) - Q(state), without materializing the flip.

    The community-count penalty is unchanged by a flip, so this is purely a
    likelihood delta over the observed entries of row and column n. It is
    entry k of the delta row the sweep computes for node n.
    """
    if not (0 <= n < state.n):
        raise IndexError(f"node index {n} out of range for n={state.n}")
    if not (0 <= k < state.k_plus):
        raise IndexError(f"feature index {k} out of range for k={state.k_plus}")
    if y.n != state.n or mask.n != state.n:
        raise ValueError("adjacency/mask/state dimensions disagree")
    idx = _MaskIndex(y, mask)
    table = np.concatenate([state.left_cache, state.right_cache]).T.copy()
    delta, _, _ = _flip_deltas(idx, state, n, *_gather(idx, table, state, n), 0)
    return float(delta[k])


def _sweep_pass(idx: _MaskIndex, state: ModelState, apply: bool) -> bool:
    """One row-major pass over all (n, k).

    With apply=True this is a sweep step: every strictly improving flip is
    taken and the pass reports whether any happened. With apply=False it is
    a read-only scan that stops at the first improving flip.

    Node n's K flips are scored at once on its K x M shift block. The first
    k with delta < -FLIP_TOLERANCE is flipped and only the features after it
    are re-scored, against the patched logits: the acceptance sequence of
    flipping one (n, k) at a time. Row-n flips never move node n's partner
    columns of the shift table, so the block stays valid for the node;
    columns n and N + n are patched for the nodes that follow. The local
    logits replay exactly the arithmetic _apply_flip performs on the full
    matrices, so local and global views stay bitwise identical.
    """
    n_nodes, k_plus = state.z.shape
    if k_plus == 0:
        return False
    table = np.concatenate([state.left_cache, state.right_cache]).T.copy()
    improved = False
    for n in range(n_nodes):
        a, shifts, ydot, sp_a, a_nn = _gather(idx, table, state, n)
        start = 0
        while start < k_plus:
            delta, sp_rows, da_nn = _flip_deltas(idx, state, n, a, shifts, ydot, sp_a, a_nn, start)
            hits = np.flatnonzero(delta < -FLIP_TOLERANCE)
            if hits.size == 0:
                break
            if not apply:
                return True
            j = hits[0]
            k = start + j
            a = a + shifts[k]
            sp_a = sp_rows[j]
            if da_nn is not None:
                a_nn = a_nn + da_nn[j]
            _apply_flip(state, n, k)
            table[:, n] = state.left_cache[n]
            table[:, n_nodes + n] = state.right_cache[n]
            improved = True
            start = k + 1
    return improved


def sweep_z(
    y: AdjacencyMatrix, mask: ObservationMask, state: ModelState
) -> tuple[ModelState, bool]:
    """One coordinate pass in fixed row-major order; flips on strict improvement.

    Mutates ``state`` in place and returns it along with whether any
    coordinate moved. The objective never increases.
    """
    improved = _sweep_pass(_MaskIndex(y, mask), state, apply=True)
    return state, improved


def _sweep_to_fixed_point(idx: _MaskIndex, state: ModelState) -> None:
    while _sweep_pass(idx, state, apply=True):
        pass


class _PairStats:
    """Sufficient statistics of the W-subproblem over membership patterns.

    A logit a_ij = z_i^T W z_j depends only on the rows z_i and z_j, so the
    nodes are grouped by their P distinct rows, stacked in ``patterns``
    (P x K). ``count[p, q]`` is the number of observed entries (i, j) with
    z_i = patterns[p] and z_j = patterns[q], and ``positives[p, q]`` the
    number of those with y_ij = 1; both are 0 on unobserved pattern pairs.
    The cross-entropy of the observed entries is then exactly
    sum(count * softplus(a) - positives * a) over the P x P pair logits a.
    """

    def __init__(self, y: AdjacencyMatrix, mask: ObservationMask, z: np.ndarray):
        self.patterns, inverse = np.unique(z, axis=0, return_inverse=True)
        n_pat = self.patterns.shape[0]
        obs_i, obs_j = np.nonzero(mask.observed)
        # one bincount splits each pattern pair's entries by their y value
        code = 2 * (inverse[obs_i] * n_pat + inverse[obs_j]) + y.entries[obs_i, obs_j]
        by_label = np.bincount(code, minlength=2 * n_pat * n_pat).reshape(n_pat, n_pat, 2)
        self.count = by_label.sum(axis=2).astype(float)
        self.positives = by_label[:, :, 1].astype(float)

    def logits(self, w: np.ndarray) -> np.ndarray:
        """P x P pair logits patterns @ w @ patterns^T."""
        return (self.patterns @ w) @ self.patterns.T

    def loss(self, a: np.ndarray) -> float:
        """Cross-entropy of the observed entries, given the pair logits a."""
        return float(np.vdot(self.count, softplus(a)) - np.vdot(self.positives, a))

    def gradient(self, a: np.ndarray) -> np.ndarray:
        """W-gradient of the loss: patterns^T R patterns, R = count * sigma(a) - positives."""
        residual = self.count * sigmoid(a) - self.positives
        return self.patterns.T @ residual @ self.patterns


def optimize_w(
    y: AdjacencyMatrix, mask: ObservationMask, state: ModelState, config: FitConfig
) -> ModelState:
    """Backtracking gradient descent on W for fixed Z (the objective is convex here).

    Armijo condition with halving steps; the first step's line search starts
    at 1.0 and later searches start from twice the last accepted step
    (capped at 1.0), which keeps trial counts near one once the scale is
    found. Stops when the gradient infinity-norm drops below w_grad_tol,
    after w_max_steps, or when a step can no longer make measurable
    progress. Caches are rebuilt from scratch on exit.

    The descent runs on pattern-pair sufficient statistics (see _PairStats),
    built with one pass over the observed entries. The iterates are those of
    descent over the individual entries, up to summation order, but a step
    costs O(P^2 K) for P distinct membership rows instead of O(N^2 K): a
    trial step shifts the pair logits by -t * (the gradient's logit image),
    so each Armijo trial is one softplus pass over the P x P pattern pairs.
    """
    if state.k_plus == 0:
        return state
    stats = _PairStats(y, mask, state.z)
    w = state.w.copy()

    a = stats.logits(w)
    f = stats.loss(a)
    if not np.isfinite(f):
        raise NumericalError("non-finite objective entering W descent", state)

    step_start = 1.0
    for _ in range(config.w_max_steps):
        grad = stats.gradient(a)
        if np.abs(grad).max() < config.w_grad_tol:
            break
        grad_sq = float((grad * grad).sum())
        g = stats.logits(grad)

        step = step_start
        accepted = False
        while step > 1e-20:
            a_new = a - step * g
            f_new = stats.loss(a_new)
            if np.isfinite(f_new) and f_new <= f - 1e-4 * step * grad_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted or f_new >= f:
            break  # line search exhausted; no strict descent available
        w -= step * grad
        a = a_new
        step_start = min(1.0, 2.0 * step)
        # stall guard: once per-step progress is below measurement noise,
        # further steps cannot change the outer loop's decisions
        if (f - f_new) < 1e-12 * max(1.0, abs(f)):
            f = f_new
            break
        f = f_new
    state.w = w
    state.rebuild_caches()
    return state


def propose_feature(
    y: AdjacencyMatrix,
    mask: ObservationMask,
    state: ModelState,
    config: FitConfig,
    rng: np.random.Generator,
) -> ModelState:
    """Candidate state with one extra community, optimized but not yet accepted.

    Appends a zero membership column and turns it on for one uniformly drawn
    node; borders W with Gaussian(0, sigma_w^2) entries (new row first, then
    the new column); then descends on the full W and sweeps the candidate's
    coordinates to a fixed point. The input state is not mutated.
    """
    return _propose_feature(_MaskIndex(y, mask), y, mask, state, config, rng)


def _propose_feature(
    idx: _MaskIndex,
    y: AdjacencyMatrix,
    mask: ObservationMask,
    state: ModelState,
    config: FitConfig,
    rng: np.random.Generator,
) -> ModelState:
    """propose_feature with the caller's prebuilt index of (y, mask)."""
    n_nodes = state.n
    k = state.k_plus
    node = int(rng.integers(n_nodes))

    z_new = np.zeros((n_nodes, k + 1))
    z_new[:, :k] = state.z
    z_new[node, k] = 1.0

    w_new = np.zeros((k + 1, k + 1))
    w_new[:k, :k] = state.w
    border = rng.normal(0.0, config.sigma_w, 2 * k + 1)
    w_new[k, :] = border[: k + 1]
    w_new[:k, k] = border[k + 1 :]

    candidate = ModelState.from_factors(z_new, w_new, state.lam)
    optimize_w(y, mask, candidate, config)
    _sweep_to_fixed_point(idx, candidate)
    return candidate


def prune_empty_features(state: ModelState) -> ModelState:
    """Drop all-zero membership columns (and their W rows/columns) in place.

    Inert columns contribute exactly zero to every logit, so the logit cache
    is kept as-is; only the penalty drops, by lam^2 per removed column.
    """
    occupancy = state.z.sum(axis=0)
    keep = occupancy > 0
    if keep.all():
        return state
    state.z = state.z[:, keep]
    state.w = state.w[np.ix_(keep, keep)]
    state.left_cache = state.z @ state.w.T
    state.right_cache = state.z @ state.w
    return state


def fit(
    y: AdjacencyMatrix,
    mask: ObservationMask,
    config: FitConfig,
    on_iteration=None,
) -> FitReport:
    """Run the full greedy loop and return its report.

    Each outer iteration: sweep Z to a one-flip fixed point, descend on W,
    prune empty communities, then births_per_iter grow-by-one proposals,
    each accepted only if it strictly lowers the objective. The run stops
    when an iteration's relative improvement falls below rel_tol, the last
    proposal was rejected, and no single coordinate flip can improve the
    final state (so the returned state is a one-flip local minimum), or at
    max_outer_iters. A non-finite objective at the end of an outer
    iteration raises NumericalError.

    ``on_iteration(iteration, state, elapsed_seconds)``, if given, is called
    after each outer iteration with the cumulative wall-clock time of the
    fit, not counting the time spent in earlier on_iteration calls. The
    returned state's caches are rebuilt from (Z, W), so its logits do not
    depend on the order of the incremental patches that produced them.

    Deterministic for a fixed config: one RNG stream seeded with config.seed
    drives initialization and every birth proposal.
    """
    if y.n != mask.n:
        raise ValueError(f"adjacency n={y.n} and mask n={mask.n} disagree")
    rng = np.random.default_rng(config.seed)
    state = init_state(y.n, config, rng=rng)
    idx = _MaskIndex(y, mask)
    report = FitReport()
    t_start = time.perf_counter()
    callback_s = 0.0
    q = objective(y, mask, state)

    for iteration in range(config.max_outer_iters):
        t_iter = time.perf_counter()
        q_start = q

        _sweep_to_fixed_point(idx, state)
        optimize_w(y, mask, state, config)
        state = prune_empty_features(state)

        q = objective(y, mask, state)
        last_birth_accepted = False
        for _ in range(config.births_per_iter):
            candidate = _propose_feature(idx, y, mask, state, config, rng)
            q_candidate = objective(y, mask, candidate)
            accepted = q_candidate < q - FLIP_TOLERANCE
            if accepted:
                state, q = candidate, q_candidate
            report.accepted_births.append(accepted)
            last_birth_accepted = accepted

        if not math.isfinite(q):
            raise NumericalError(f"non-finite objective {q} after outer iteration {iteration}", state)
        report.objective_trace.append(q)
        report.k_trace.append(state.k_plus)
        report.elapsed.append(time.perf_counter() - t_iter)
        if on_iteration is not None:
            t_callback = time.perf_counter()
            on_iteration(iteration, state, t_callback - t_start - callback_s)
            callback_s += time.perf_counter() - t_callback

        rel_improvement = (q_start - q) / max(abs(q_start), 1e-12)
        if rel_improvement < config.rel_tol and not last_birth_accepted:
            # declare convergence only from a genuine one-flip local minimum:
            # the W update may have shifted some coordinate's best value
            if not _sweep_pass(idx, state, apply=False):
                report.converged = True
                break

    state.rebuild_caches()
    report.final_state = state
    return report
