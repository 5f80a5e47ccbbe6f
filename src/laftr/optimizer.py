"""Greedy alternating minimization of the penalized cross-entropy objective.

One outer iteration: sweep the binary membership coordinates to a one-flip
fixed point, take a damped-Newton W step (convex for fixed Z), prune
communities nobody belongs to, then propose growing the model by one
community and keep the grown model only if it lowers the objective; an
iteration that would end the fit draws more proposals first. Every move is
a descent move, so the objective trace is non-increasing and the loop
reaches a local minimum in finitely many iterations.

Coordinate moves are evaluated without touching the full N x N logit matrix:
flipping z[n, k] shifts logit row n by +-left_cache[:, k] and column n by
+-right_cache[:, k], so the objective delta is a sum of O(N)
softplus-difference terms over the M observed entries of row/column n. The
kernel scores all K flips of node n in one softplus pass over a K x M block
of those shifts, takes the first improving k and re-scores only the
features after it, so it accepts exactly the flips of a one-at-a-time scan.
A flip counts as improving only if its delta plus a bound on the delta's
rounding error is below -FLIP_TOLERANCE, so every accepted flip provably
lowers the objective and a sweep cannot cycle, even on saturated logits.

Most nodes have no improving flip in most passes, so the sweep screens
them with an N x K table of every flip delta, maintained across passes.
Every sweep starts from rebuilt caches and builds the table from the P
distinct rows of Z (P x P x K softplus terms instead of N x M x K); each
entry carries a bound on its distance from the kernel's value, and none
on drift of the caches. Only nodes whose row minus its bound falls below
-FLIP_TOLERANCE go through the kernel; the kernel would reject every
flip of the others. After a node's flips, each other node's row changes
only in its entries at that node, so the table is updated in O(N K) per
flipping node. The screen changes no flip, and so no fit.

The W step never touches the N x N matrices either. A logit depends only on
the membership rows of its two nodes, so for fixed Z the observed entries
collapse into pattern pairs: with P distinct rows of Z, the W-subproblem is
a logistic fit with K^2 parameters over P x P pairs weighted by their
observed and positive counts (model._PairStats, which the objective also
sums with), gathered in one pass over the observed entries. It is solved
by damped Newton: a step builds the K^2 x K^2 Hessian in O(P^2 K^2 + P K^4)
and solves it, never visiting the N^2 entries, and a W step typically
takes about ten such steps. Its trial logits are BLAS products that are
never stored; on exit ModelState.rebuild_caches stores the logits, in a
fixed order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .graph import AdjacencyMatrix, ObservationMask
from .model import ModelState, _group_patterns, _PairStats, objective, softplus

__all__ = [
    "FitConfig",
    "FitReport",
    "init_state",
    "delta_objective_flip",
    "optimize_w",
    "prune_empty_features",
    "fit",
]

# Strict-improvement margin for accepting a coordinate flip (after its
# rounding bound, see _sweep) or a grown model.
FLIP_TOLERANCE = 1e-12

# Unit roundoff of float64 arithmetic.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Births fit draws after a rejected one before it may stop (see fit).
BIRTH_RETRIES = 10
# Newton-step cap and gradient infinity-norm stop of a W step (see optimize_w).
W_MAX_STEPS = 200
W_GRAD_TOL = 1e-6


def _rounding_beta(n_nodes: int) -> float:
    """beta of the flip-delta rounding bound beta * mass on N nodes (see _sweep).

    Every sum in the kernel or in the delta table adds at most 2N terms, each
    rounded a few times; twice that first-order bound leaves headroom.
    """
    return _UNIT_ROUNDOFF * (4 * n_nodes + 64)


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
    seed: int = 0

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


@dataclass
class FitReport:
    """Per-outer-iteration trace of a fit run.

    objective_trace is non-increasing (within 1e-9 slack); elapsed holds each
    iteration's wall-clock duration in seconds. births_proposed counts each
    iteration's birth proposals (1, plus the retries drawn) and
    accepted_births says whether one of them was kept.
    """

    objective_trace: list[float] = field(default_factory=list)
    k_trace: list[int] = field(default_factory=list)
    births_proposed: list[int] = field(default_factory=list)
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
    and ``diag_y`` describe (n, n) itself. ``offdiag`` is the N x N mask
    without its diagonal and ``positive`` its entries with y = 1. Built
    once per fit; the mask and y never change during a run.
    """

    def __init__(self, y: AdjacencyMatrix, mask: ObservationMask):
        obs = mask.observed.copy()
        np.fill_diagonal(obs, False)
        yv = y.entries
        n = mask.n
        self.offdiag = obs
        self.positive = obs & (yv == 1)
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
    """Objective deltas of flipping z[n, k] for each k >= start, and their masses.

    One softplus pass over the block rows, summed per row, so each delta
    keeps numpy's 1-D pairwise summation. A row's mass (see _sweep) sums
    sp(a + s) + sp(a) + y|s| + 1 over n's observed entries, plus the
    diagonal's. Also returns each row's softplus sum and, if (n, n) is
    observed, the diagonal logit's shifts (see _diag_terms); else None.
    """
    rows = shifts[start:]
    sp_rows = softplus(a + rows).sum(axis=1)
    delta = sp_rows - sp_a - ydot[start:]
    mass = sp_rows + sp_a + np.vecdot(np.abs(rows), idx.rowcol_y[n])
    mass += len(idx.rowcol_y[n])
    diag = None
    if idx.diag_observed[n]:
        terms, diag, sp_x, sp_nn = _diag_terms(state, n, a_nn, idx.diag_y[n], start)
        delta += terms
        mass += _diag_mass(state, n, sp_x, sp_nn, start)
    return delta, mass, sp_rows, diag


def _diag_terms(state, n, a_nn, y_nn, start=0):
    """Diagonal delta terms of flipping z[n, k] for each k >= start.

    n is a node, or an array of nodes with a_nn and y_nn columns of their
    diagonal logits and y values (then each node's terms are a row).
    Returns the terms, the shifts da of logit (n, n), sp(a_nn + da) and
    sp(a_nn).
    """
    # the diagonal logit is quadratic in z[n, k]: both caches shift it, plus
    # the d^2 = 1 self-term w[k, k]
    da = (1.0 - 2.0 * state.z[n, start:]) * (state.left_cache[n, start:]
                                             + state.right_cache[n, start:])
    da += np.diagonal(state.w)[start:]
    sp_x, sp_a = softplus(a_nn + da), softplus(a_nn)
    return -y_nn * da + sp_x - sp_a, da, sp_x, sp_a


def _diag_mass(state, n, sp_x, sp_a, start=0):
    """Mass of the diagonal terms of node(s) n's flips k >= start, from _diag_terms' sp values.

    Adds |left| + |right| + |w[k, k]|, which bounds the diagonal shift and
    so its rounding and its y term.
    """
    return (sp_x + sp_a + np.abs(state.left_cache[n, start:])
            + np.abs(state.right_cache[n, start:]) + np.abs(np.diagonal(state.w)[start:]) + 1.0)


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
    return float(_flip_deltas(idx, state, n, *_gather(idx, table, state, n), 0)[0][k])


class _DeltaTable:
    """The sweep's screen: every node's flip deltas, each with a bound.

    ``delta[k, n]`` approximates the delta _flip_deltas computes for
    flipping z[n, k] in the current state and is within
    ``error + beta * mass`` of it; _sweep derives the bound. ``open``
    marks the nodes the sweep must still visit, and ``sign`` holds
    1 - 2 z^T.

    It is built on caches _sweep has just rebuilt, so each pattern's values
    are read at its first node and every entry starts at error beta * mass,
    as after a kernel reset; no bound covers drifted caches.
    """

    def __init__(self, idx: _MaskIndex, state: ModelState):
        n_nodes, k_plus = state.z.shape
        self.beta = _rounding_beta(n_nodes)
        self.idx = idx
        self.sign = 1.0 - 2.0 * state.z.T
        patterns, first, inv = _group_patterns(state.z)
        n_pat = len(first)
        onehot = (inv[:, None] == np.arange(n_pat)).astype(float)
        # pattern-level logits and cache rows, read at each pattern's first node
        pat_logits = state.logits[np.ix_(first, first)]
        side = np.concatenate([state.left_cache[first], state.right_cache[first]])
        # counts[n] = observed partners of n by pattern, row side then column
        # side; positives counts those with y = 1
        counts, positives = (np.concatenate([obs @ onehot, obs.T @ onehot], axis=1)
                             for obs in (idx.offdiag, idx.positive))

        # one softplus pass over 2P x K pattern-pair shifts per pattern group,
        # contracted with the group's counts
        self.delta = np.empty((k_plus, n_nodes))
        self.mass = np.empty((k_plus, n_nodes))
        abs_side = np.abs(side)
        groups = np.split(np.argsort(inv, kind="stable"), np.cumsum(np.bincount(inv))[:-1])
        for p, members in enumerate(groups):
            shifts = side * (1.0 - 2.0 * patterns[p])
            a = np.concatenate([pat_logits[p], pat_logits[:, p]])[:, None]
            sp_x, sp_a = softplus(a + shifts), softplus(a)
            c, y = counts[members], positives[members]
            self.delta[:, members] = (c @ (sp_x - sp_a) - y @ shifts).T
            self.mass[:, members] = (c @ (sp_x + sp_a + 1.0) + y @ abs_side).T
        diag = np.flatnonzero(idx.diag_observed)
        if diag.size:
            terms, _, sp_x, sp_a = _diag_terms(state, diag, np.diagonal(state.logits)[diag, None],
                                               idx.diag_y[diag, None])
            self.delta[:, diag] += terms.T
            self.mass[:, diag] += _diag_mass(state, diag, sp_x, sp_a).T
        self.error = self.beta * self.mass
        self.open = self._flagged()

    def _flagged(self) -> np.ndarray:
        bound = self.error + self.beta * self.mass
        return (self.delta - bound < -FLIP_TOLERANCE).any(axis=0)

    @staticmethod
    def entries_at(state: ModelState, m: int):
        """The logits and cache rows that node m's flips change for the other nodes."""
        a = np.concatenate([state.logits[:, m], state.logits[m, :]])
        return a, state.left_cache[m].copy(), state.right_cache[m].copy()

    def replace(self, state: ModelState, m: int, old) -> None:
        """Move the other nodes' rows by node m's flips; ``old`` is entries_at before them.

        Node n's entries at m are (n, m), shifted by +-left_cache[m], and
        (m, n), shifted by +-right_cache[m]. Their terms before and after
        the flips are scored in one softplus pass over a stacked
        K x 2 x 2N block. Node m's own row is left to reset(). A node with
        an entry at m is reopened if its screen no longer holds.
        """
        n_nodes, k_plus = state.z.shape
        new = self.entries_at(state, m)
        # axes: feature, before/after, entry (n, m)/(m, n), node n; the extra
        # feature row has zero shift, so its softplus is sp(a)
        shifts = np.zeros((k_plus + 1, 2, 2, n_nodes))
        for t, (_, left, right) in enumerate((old, new)):
            np.multiply(self.sign, left[:, None], out=shifts[:k_plus, t, 0])
            np.multiply(self.sign, right[:, None], out=shifts[:k_plus, t, 1])
        sp = softplus(shifts + np.concatenate([old[0], new[0]]).reshape(2, 2, n_nodes))
        sp_x, sp_a, shifts = sp[:k_plus], sp[k_plus], shifts[:k_plus]
        obs, y = np.stack([self.idx.offdiag[:, m], self.idx.offdiag[m, :],
                           self.idx.positive[:, m], self.idx.positive[m, :]]).reshape(2, 2, n_nodes)
        ys = shifts * y
        terms = np.where(obs, sp_x - sp_a - ys, 0.0).sum(axis=2)
        mass = np.where(obs, sp_x + sp_a + np.abs(ys) + 1.0, 0.0).sum(axis=2)
        self.delta += terms[:, 1] - terms[:, 0]
        self.mass += mass[:, 1] - mass[:, 0]
        self.error += self.beta * (mass[:, 0] + mass[:, 1]) + _UNIT_ROUNDOFF * np.abs(self.delta)
        self.sign[:, m] = 1.0 - 2.0 * state.z[m]
        # a node with no observed entry at m sees no change: it keeps its state
        touched = self.idx.offdiag[:, m] | self.idx.offdiag[m, :]
        self.open = np.where(touched, self._flagged(), self.open)

    def reset(self, n: int, delta, mass) -> None:
        """Take node n's row from the kernel's scores of every k in the current state.

        The row is within beta * mass of kappa, as is the kernel's next
        visit, so n stays open only if the row could hold a flip the
        kernel accepts; that rule does not subtract the kernel's own
        beta * mass, so it is looser than the kernel's.
        """
        self.delta[:, n] = delta
        self.mass[:, n] = mass
        self.error[:, n] = self.beta * mass
        self.open[n] = bool((delta - 2.0 * self.beta * mass < -FLIP_TOLERANCE).any())


def _sweep(idx: _MaskIndex, state: ModelState, apply: bool) -> bool:
    """Row-major passes over all (n, k), screened by a maintained delta table.

    It first rebuilds the state's caches from Z and W. With apply=True it
    then sweeps to a one-flip fixed point: every provably improving flip is
    taken, passes repeat until one takes none, and the return value says
    whether any flip happened. With apply=False it is one pass that stops
    at the first improving flip; it leaves Z and W unchanged but may
    rewrite the caches to their rebuilt values.

    The flips are exactly those of visiting every node in every pass with
    the kernel (_gather/_flip_deltas): node n's K flips are scored at once
    on its K x M shift block, the first k with delta + beta * mass <
    -FLIP_TOLERANCE is flipped and only the features after it are
    re-scored. The kernel's local logits replay the arithmetic of
    _apply_flip, and the shift table's columns n and N + n are patched
    after each flip. As the kernel's delta is within beta * mass of kappa
    (below), an accepted flip lowers the objective by more than
    FLIP_TOLERANCE in exact arithmetic on the state's logits, so passes
    cannot cycle.

    The screen (_DeltaTable) holds every node's K deltas, built after the
    rebuild from the P distinct rows of Z. Its bound: for entry (n, k) let
    kappa be the delta in exact arithmetic on the state's floating-point
    logits and caches, and mass the sum of sp(a + s) + sp(a) + y|s| + 1
    over n's observed entries (logit a, shift s; plus the diagonal's
    terms). The kernel's delta is within beta * mass of kappa, beta =
    u (4N + 64) for unit roundoff u: each of its sums adds at most 2N
    terms, and beta is twice that first-order bound. The table's error
    term bounds |table - kappa|: a newly built entry and a kernel row's
    reset start it at beta * mass; each update adds beta x the changed
    entries' mass before and after, plus u |table|. So the table is within
    error + beta * mass of the kernel, and a pass visits only nodes with an
    entry below -FLIP_TOLERANCE after subtracting that; the kernel would
    reject every flip of the others.

    After node m's flips, only the entries (n, m) and (m, n) of the other
    nodes move: their rows are updated from one softplus pass over those
    entries before and after the flips, and m's row is re-scored by the
    kernel. A node the kernel has just visited without flipping stays
    closed until a flip touches one of its entries. The screen opens a
    node when the kernel's delta could fall below -FLIP_TOLERANCE; it does
    not subtract the kernel's own beta * mass, so it opens every node whose
    flip the kernel could accept.
    """
    n_nodes, k_plus = state.z.shape
    if k_plus == 0:
        return False
    state.rebuild_caches()
    table = np.concatenate([state.left_cache, state.right_cache]).T.copy()
    screen = _DeltaTable(idx, state)
    beta = screen.beta
    improved = False
    while True:
        flipped = False
        n = 0
        while (ahead := np.flatnonzero(screen.open[n:])).size:
            n += int(ahead[0])
            a, shifts, ydot, sp_a, a_nn = _gather(idx, table, state, n)
            flips = []
            start = 0
            while start < k_plus:
                delta, mass, sp_rows, diag = _flip_deltas(idx, state, n, a, shifts, ydot, sp_a,
                                                          a_nn, start)
                hits = np.flatnonzero(delta + beta * mass < -FLIP_TOLERANCE)
                if hits.size == 0:
                    break
                if not apply:
                    return True
                if not flips:
                    old = screen.entries_at(state, n)
                j = hits[0]
                k = start + j
                a = a + shifts[k]
                sp_a = sp_rows[j]
                if diag is not None:
                    a_nn = a_nn + diag[j]
                _apply_flip(state, n, k)
                table[:, n] = state.left_cache[n]
                table[:, n_nodes + n] = state.right_cache[n]
                flips.append(k)
                start = k + 1
            if flips:
                screen.replace(state, n, old)
                # score every k again, as the next visit to n would
                shifts[flips] *= -1.0
                ydot[flips] *= -1.0
                delta, mass, _, _ = _flip_deltas(idx, state, n, a, shifts, ydot, sp_a,
                                                 state.logits[n, n], 0)
                flipped = True
            screen.reset(n, delta, mass)
            if not flips:
                # the kernel just rejected every flip of n in this very state
                screen.open[n] = False
            n += 1
        if not flipped or not apply:
            return improved
        improved = True


def optimize_w(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> ModelState:
    """Damped Newton on W for fixed Z (the objective is convex here).

    The subproblem is a logistic fit with K^2 parameters over the P x P
    pattern pairs of _PairStats, built with one pass over the observed
    entries; its iterates are those of Newton over the individual entries,
    up to summation order. Each step solves (H + mu I) d = -g for the
    K^2 x K^2 Hessian H, with Levenberg damping mu = 1e-8 max(1, tr H / K^2),
    and falls back to d = -g if the solve fails or d is not a descent
    direction. The solve runs in the span of the observed pair features
    (_PairStats.observed_basis), where g and H live: in exact arithmetic
    that is the same step, but a W direction that moves no observed logit
    would otherwise pick up the gradient's rounding noise divided by mu.
    An Armijo backtrack (constant 1e-4, halving from t = 1) then accepts
    w + t d; each trial is one softplus pass over the pair logits, shifted
    by t times d's logit image.

    Stops when the gradient infinity-norm drops below W_GRAD_TOL, after
    W_MAX_STEPS, or when a step can no longer make measurable progress.
    On near-separable data the optimum is at infinity and the last of
    these, the stall guard, ends the step. Caches are rebuilt on exit.
    """
    if state.k_plus == 0:
        return state
    stats = _PairStats(y, mask, state.z)
    basis = stats.observed_basis()
    w = state.w.copy()
    n_params = w.size

    a = stats.logits(w)
    f = stats.loss(a)
    if not np.isfinite(f):
        raise NumericalError("non-finite objective entering the W step", state)

    for _ in range(W_MAX_STEPS):
        grad = stats.gradient(a)
        if np.abs(grad).max() < W_GRAD_TOL:
            break
        h = stats.hessian(a)
        damping = 1e-8 * max(1.0, np.trace(h) / n_params)
        h = basis.T @ h @ basis
        h[np.diag_indices(len(h))] += damping
        try:
            d = (basis @ np.linalg.solve(h, basis.T @ -grad.ravel())).reshape(w.shape)
            slope = float(np.vdot(grad, d))
        except np.linalg.LinAlgError:
            slope = math.nan
        if not -math.inf < slope < 0.0:
            d, slope = -grad, -float(np.vdot(grad, grad))
        image = stats.logits(d)

        step = 1.0
        accepted = False
        while step > 1e-20:
            a_new = a + step * image
            f_new = stats.loss(a_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted or f_new >= f:
            break  # line search exhausted; no strict descent available
        w += step * d
        a = a_new
        # stall guard: once per-step progress is below measurement noise,
        # further steps cannot change the outer loop's decisions
        if (f - f_new) < 1e-12 * max(1.0, abs(f)):
            break
        f = f_new
    state.w = w
    state.rebuild_caches()
    return state


def propose_feature(
    idx: _MaskIndex,
    y: AdjacencyMatrix,
    mask: ObservationMask,
    state: ModelState,
    config: FitConfig,
    rng: np.random.Generator,
) -> ModelState:
    """Candidate state with one extra community, optimized but not yet accepted.

    Appends a zero membership column and turns it on for one uniformly drawn
    node; borders W with Gaussian(0, sigma_w^2) entries (new row first, then
    the new column); then takes the W step on the full W and sweeps the candidate's
    coordinates to a fixed point, using fit's index ``idx`` of (y, mask).
    The input state is not mutated.
    """
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
    optimize_w(y, mask, candidate)
    _sweep(idx, candidate, apply=True)
    return candidate


def prune_empty_features(state: ModelState) -> ModelState:
    """Drop all-zero membership columns (and their W rows/columns) in place.

    Inert columns add exact zeros to every sum of rebuild_caches, which
    rebuilds the caches here, so a rebuilt state keeps its logits bit for
    bit; only the penalty drops, by lam^2 per removed column.
    """
    occupancy = state.z.sum(axis=0)
    keep = occupancy > 0
    if keep.all():
        return state
    state.z = state.z[:, keep]
    state.w = state.w[np.ix_(keep, keep)]
    state.rebuild_caches()
    return state


def fit(
    y: AdjacencyMatrix,
    mask: ObservationMask,
    config: FitConfig,
    on_iteration=None,
) -> FitReport:
    """Run the full greedy loop and return its report.

    Each outer iteration: sweep Z to a one-flip fixed point, take the
    damped-Newton W step, prune empty communities, then one grow-by-one
    proposal, accepted only if it strictly lowers the objective. If the
    iteration's relative improvement is below rel_tol and that proposal is
    rejected, up to BIRTH_RETRIES more single-node births are drawn from
    the same RNG stream, and the first that lowers the objective is kept.
    The run converges when no flip provably improves and R+1 births were
    rejected (R = BIRTH_RETRIES), so the returned state is a one-flip local
    minimum. It also stops at max_outer_iters. A non-finite objective at
    the end of an outer iteration raises NumericalError.

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

        _sweep(idx, state, apply=True)
        optimize_w(y, mask, state)
        state = prune_empty_features(state)

        q = objective(y, mask, state)
        stalled = (q_start - q) / max(abs(q_start), 1e-12) < config.rel_tol
        # one birth, and BIRTH_RETRIES more if the iteration would otherwise stop
        births = 1 + BIRTH_RETRIES if stalled else 1
        birth_accepted = False
        for proposed in range(1, births + 1):
            candidate = propose_feature(idx, y, mask, state, config, rng)
            q_candidate = objective(y, mask, candidate)
            if q_candidate < q - FLIP_TOLERANCE:
                state, q, birth_accepted = candidate, q_candidate, True
                break
        report.births_proposed.append(proposed)
        report.accepted_births.append(birth_accepted)

        if not math.isfinite(q):
            raise NumericalError(f"non-finite objective {q} after outer iteration {iteration}", state)
        report.objective_trace.append(q)
        report.k_trace.append(state.k_plus)
        report.elapsed.append(time.perf_counter() - t_iter)
        if on_iteration is not None:
            t_callback = time.perf_counter()
            on_iteration(iteration, state, t_callback - t_start - callback_s)
            callback_s += time.perf_counter() - t_callback

        if stalled and not birth_accepted:
            # declare convergence only from a genuine one-flip local minimum:
            # the W update may have shifted some coordinate's best value
            if not _sweep(idx, state, apply=False):
                report.converged = True
                break

    state.rebuild_caches()
    report.final_state = state
    return report
