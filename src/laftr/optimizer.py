"""Greedy alternating minimization of the penalized cross-entropy objective.

One outer iteration: sweep the binary membership coordinates to a one-flip
fixed point, drop the communities the sweep emptied, take a damped-Newton W
step (convex for fixed Z), then propose growing the model by one community
and keep the grown model only if it lowers the objective; an iteration that
would end the fit draws more proposals first. Every move is a descent move,
so the objective trace is non-increasing and the loop reaches a local
minimum in finitely many iterations. The sweep of an iteration that follows
an accepted birth is skipped: the candidate's own sweep has just left that
state at a one-flip fixed point.

Coordinate moves are scored on membership patterns. For fixed W a logit
depends only on the rows of Z of its two nodes, so with P distinct rows
(patterns) every observed logit is an entry of the P x P pattern logit
table that the objective also sums. Flipping z[n, k] shifts the logit of an
entry (n, j) by +-W[k, :] . z_j and of (i, n) by +-z_i . W[:, k], and
those too depend only on the other node's pattern. Node n's K flip
deltas are therefore sums over its 2P partner patterns (row side and column
side): the number of its observed entries with that partner times a
softplus difference, minus the number with y = 1 times the shift, plus the
term of (n, n) if it is observed. The kernel scores all K flips of node n
in one softplus pass over those K x 2P terms, takes the first improving k,
scores the row again on n's new pattern and looks for the next improving
feature after k there, so it accepts exactly the flips of a one-at-a-time
scan. A flip counts as improving only if its delta plus a bound on the
delta's rounding error is below -FLIP_TOLERANCE, so every accepted flip
provably lowers the objective and a sweep cannot cycle, even on saturated
logits.

Most nodes have no improving flip in most passes, so the sweep screens
them with an N x K table of every flip delta, maintained across passes
and built from the same per-pattern terms; each entry carries a bound on
its distance from the kernel's value. Only nodes whose row minus its bound
falls below -FLIP_TOLERANCE go through the kernel; the kernel would reject
every flip of the others. When node m changes pattern, the other nodes'
partner counts move by one at m's pattern before and after, and their rows
move by the terms of their entries at m, scored once per pattern. The
kind of each node's entry at m (unobserved, y = 0, y = 1) is built once
per fit, so a move gathers each side's terms with one take on pattern and
kind. A visit whose screen row alone proves which flip comes first takes
it without the kernel. W is fixed for a sweep, so its table keeps the
kernel's per-pattern terms and the move terms of each pattern pair until
a flip makes a new row of Z. The sweep reads Z, W and the mask only; a
new row of Z gets a row and column of the logit table with the bits
model._pattern_caches gives it. The screen changes no flip, and so no fit.

The W step works on patterns too: for fixed Z the observed entries collapse
into pattern pairs, so the W-subproblem is a logistic fit with K^2
parameters over P x P pairs weighted by their observed and positive counts
(model._PairStats, which the objective also sums with), gathered in one
pass over the entries, with observed and link flags built once per fit.
It is solved by damped Newton: a step builds the K^2 x K^2 Hessian in
O(P^2 K^2 + P K^4) and solves it, never visiting the N^2 entries, and a W
step typically takes about ten such steps. Its trial logits are BLAS
products that are never stored, and the one exp of an accepted logit
table serves both its loss and the next step's sigmoid. The objective
after the W step sums over the same pattern-pair counts, and the counts an
accepted birth's objective gathered serve the next W step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .graph import AdjacencyMatrix, ObservationMask
from .model import (ModelState, _entry_flags, _exp_neg_abs, _group_patterns, _PairStats,
                    _pattern_caches, _pattern_logits, objective, softplus)

__all__ = [
    "FitConfig",
    "FitReport",
    "init_state",
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

    Every sum in the kernel or in the delta table adds at most 2N nonzero
    terms, each rounded a few times; twice that first-order bound leaves
    headroom.
    """
    return _UNIT_ROUNDOFF * (4 * n_nodes + 64)


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters and stopping rules for :func:`fit`.

    lam is the per-community penalty weight (the objective charges lam^2 per
    non-empty community); sigma_w scales the Gaussian initialization of W
    entries.
    """

    lam: float = 0.5
    sigma_w: float = 1.0
    k_init: int = 1
    max_outer_iters: int = 100
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # `not x > 0` rejects NaN too
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not 0 < self.sigma_w < math.inf:
            raise ValueError(f"sigma_w must be positive and finite, got {self.sigma_w}")
        if self.k_init < 1:
            raise ValueError(f"k_init must be >= 1, got {self.k_init}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass
class FitReport:
    """Per-outer-iteration trace of a fit run.

    objective_trace is non-increasing (within 1e-9 slack); elapsed holds each
    iteration's wall-clock duration in seconds, its convergence scan
    included. births_proposed counts each iteration's birth proposals (1,
    plus the retries drawn) and accepted_births says whether one of them
    was kept.
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
    """The mask and y as the sweep reads them, built once per fit.

    ``at[m, 0, s, n]`` says whether node n's entry at node m is observed,
    on n's row side (s = 0, the entry (n, m)) or its column side (s = 1,
    the entry (m, n)), and ``at[m, 1, s, n]`` whether it also has y = 1;
    the diagonal counts as unobserved. ``kind[m, s, n]`` is that entry's
    kind, at[m, 0, s, n] + at[m, 1, s, n] (0 unobserved, 1 y = 0, 2 y = 1),
    and ``touched[m, n]`` whether either kind is nonzero: a flip of m
    changes n's row of the screen only then. ``diag_observed`` and
    ``diag_y`` describe each (n, n). ``flags`` are model._entry_flags, the
    observed flags as the floats _PairStats weights its counts with. The
    mask and y never change during a run.
    """

    def __init__(self, y: AdjacencyMatrix, mask: ObservationMask):
        observed = mask.observed.copy()
        np.fill_diagonal(observed, False)
        self.at = np.stack([np.stack([entries.T, entries], axis=1)
                            for entries in (observed, observed & (y.entries == 1))], axis=1)
        self.kind = self.at.sum(axis=1, dtype=np.int8)
        self.touched = self.kind.any(axis=1)
        self.diag_observed = np.diagonal(mask.observed).copy()
        self.diag_y = np.diagonal(y.entries).astype(float)
        observed_flat, links_flat = _entry_flags(y, mask)
        self.flags = observed_flat.astype(float), links_flat


def _enlarged(table: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of ``shape`` with ``table`` copied into the leading corner."""
    out = np.zeros(shape, dtype=table.dtype)
    out[tuple(map(slice, table.shape))] = table
    return out


class _DeltaTable:
    """The sweep's pattern tables, and its screen: every node's flip deltas with a bound.

    Node n is at pattern ``pat[n]``, a row of ``patterns``. The other node
    of an observed entry of n is its partner: entry (n, j) has partner j on
    n's row side, entry (i, n) partner i on its column side. Partner tables
    interleave the sides: column 2q + s is a partner at pattern q on side s.
    ``logits[p, 2q]`` and ``logits[p, 2q + 1]`` are the pattern logits
    (_pattern_caches' table) of (p, q) and (q, p), and ``sp_logits`` their
    softplus. ``partner[k, 2q]`` and ``partner[k, 2q + 1]`` are W[k, :] . q
    and q . W[:, k] for pattern q, so flipping z[n, k] moves the logit of an
    entry at a partner in column j by +-partner[k, j].
    ``counts[0, j, n]`` counts n's observed entries with a partner in
    column j and ``counts[1, j, n]`` those with y = 1.

    A flip that makes a new row of Z appends it, with the logits and
    partner entries _pattern_caches gives it, bit for bit. The first
    ``n_pat`` patterns are in use; the tables' capacity doubles when they
    fill.

    ``delta[n, k]`` approximates the kernel's delta (scores) for flipping
    z[n, k] in the current Z and is within ``bound[n, k]`` of it; _sweep
    derives the bound. ``open`` marks the nodes the sweep must still visit.
    Z is the state's, flipped in place.

    W is fixed for the table's life and a pattern's row, logits and partner
    entries never change once made, so two caches keep what depends on
    nothing else: ``terms[p]``, the kernel's partner terms of a node at
    pattern p (_partner_terms, which also gives the screen's first rows),
    and ``moves[p_old, p_new]``, the move table of a node going from
    pattern p_old to p_new (_move_table). Both span the first ``n_pat``
    patterns, so flip empties them when it appends one: an entry of the old
    width is never read again.
    """

    def __init__(self, idx: _MaskIndex, state: ModelState):
        self.idx, self.z, self.w = idx, state.z, state.w
        n_nodes, k_plus = state.z.shape
        self.beta = _rounding_beta(n_nodes)
        self.patterns, _, self.pat = _group_patterns(self.z)
        self.pat3 = 3 * self.pat
        self.n_pat = n_pat = len(self.patterns)
        self.index = {row.tobytes(): p for p, row in enumerate(self.patterns)}
        self.terms, self.moves = {}, {}
        right, left, table = _pattern_caches(self.patterns, self.w)
        self.logits = np.stack([table, table.T], axis=2).reshape(n_pat, 2 * n_pat)
        self.sp_logits = softplus(self.logits)
        self.partner = np.stack([left.T, right.T], axis=2).reshape(k_plus, 2 * n_pat)
        onehot = (self.pat[:, None] == np.arange(n_pat)).astype(float)
        entries = idx.at.reshape(n_nodes, 4, n_nodes)
        self.counts = np.stack([onehot.T @ entries[:, j] for j in range(4)], axis=1).reshape(
            n_pat, 2, 2, n_nodes).transpose(1, 0, 2, 3).reshape(2, 2 * n_pat, n_nodes)
        self._grow()

        # per pattern, the kernel's partner terms contracted with its nodes' counts
        # by BLAS: faster than the kernel's reductions, and the screen decides no
        # flip. They are not kept for the kernel: its cache holds the patterns it
        # visits, while all P blocks (8 K P^2 floats) raised the peak memory of
        # ibp-grow fits by about 15%
        self.delta = np.empty((n_nodes, k_plus))
        mass = np.empty((n_nodes, k_plus))
        groups = np.split(np.argsort(self.pat, kind="stable"),
                          np.cumsum(np.bincount(self.pat))[:-1])
        for p, members in enumerate(groups):
            terms = self._partner_terms(p)
            c, pos = self.counts[:, :2 * n_pat, members]
            self.delta[members] = (terms[0, 0] @ c + terms[0, 1] @ pos).T
            mass[members] = (terms[1, 0] @ c + terms[1, 1] @ pos).T
            diag = members[idx.diag_observed[members]]
            if diag.size:
                diag_delta, diag_mass = self._diag_terms(p, idx.diag_y[diag, None])
                self.delta[diag] += diag_delta
                mass[diag] += diag_mass
        self.bound = 2.0 * self.beta * mass
        self.open = self._flagged()

    def _grow(self) -> None:
        """Double the pattern capacity of every table."""
        cap, k_plus = self.patterns.shape
        self.patterns = _enlarged(self.patterns, (2 * cap, k_plus))
        self.logits, self.sp_logits = (_enlarged(t, (2 * cap, 4 * cap))
                                       for t in (self.logits, self.sp_logits))
        self.partner = _enlarged(self.partner, (k_plus, 4 * cap))
        self.counts = _enlarged(self.counts, (2, 4 * cap, self.counts.shape[2]))

    def _diag_terms(self, p: int, y_nn):
        """Delta and mass terms of the entry (n, n) in the flips of n at pattern p, y_nn its y.

        The diagonal logit is quadratic in z[n, k]: both partner entries
        shift it, plus the d^2 = 1 self-term w[k, k]. The mass adds |left| +
        |right| + |w[k, k]|, which bounds the shift and so its rounding and
        its y term.
        """
        left, right = self.partner[:, 2 * p], self.partner[:, 2 * p + 1]
        w_diag = np.diagonal(self.w)
        da = (1.0 - 2.0 * self.patterns[p]) * (left + right) + w_diag
        sp_x, sp_a = softplus(self.logits[p, 2 * p] + da), self.sp_logits[p, 2 * p]
        return (-y_nn * da + sp_x - sp_a,
                sp_x + sp_a + np.abs(left) + np.abs(right) + np.abs(w_diag) + 1.0)

    def _partner_terms(self, p: int) -> np.ndarray:
        """The kernel's 2 x 2 x K x 2P partner terms of a node at pattern p.

        Axes: (delta, mass), (count, positive count) weight, feature,
        partner column. The delta terms are sp(a + s) - sp(a) and -s, the
        mass terms sp(a + s) + sp(a) + 1 and |s|, for the partner logits a
        and their shifts s.
        """
        width = 2 * self.n_pat
        shifts = self.partner[:, :width] * (1.0 - 2.0 * self.patterns[p, :, None])
        sp_x, sp_a = softplus(self.logits[p, :width] + shifts), self.sp_logits[p, :width]
        terms = np.empty((2, 2, *shifts.shape))  # filled in place: stacking would copy it
        np.subtract(sp_x, sp_a, out=terms[0, 0])
        np.negative(shifts, out=terms[0, 1])
        np.add(sp_x + sp_a, 1.0, out=terms[1, 0])
        np.abs(shifts, out=terms[1, 1])
        return terms

    def scores(self, n: int):
        """The kernel: node n's deltas of flipping z[n, k] for every k, and their masses.

        One pass over the K x 2P partner terms of n's pattern (cached in
        ``terms``), weighted by n's counts and summed by numpy reductions,
        never by BLAS, so the bits do not depend on the thread count. Row k
        depends on nothing but its own terms.
        """
        p = self.pat[n]
        if p not in self.terms:
            self.terms[p] = self._partner_terms(p)
        weighted = self.terms[p] * self.counts[:, :2 * self.n_pat, n][:, None]
        delta, mass = (weighted[:, 0] + weighted[:, 1]).sum(axis=2)
        if self.idx.diag_observed[n]:
            terms, diag_mass = self._diag_terms(p, self.idx.diag_y[n])
            delta += terms
            mass += diag_mass
        return delta, mass

    def flip(self, n: int, k: int) -> None:
        """Flip z[n, k] and move n to the pattern of its new row, appending it if it is new."""
        row = self.z[n]
        row[k] = 1.0 - row[k]
        key = row.tobytes()
        if key not in self.index:
            p = self.n_pat
            if p == len(self.patterns):
                self._grow()
            self.patterns[p] = row
            right, left, _ = _pattern_caches(row[None], self.w)
            self.partner[:, 2 * p], self.partner[:, 2 * p + 1] = left[0], right[0]
            # the logits (p, q) and (q, p) for q <= p
            out = _pattern_logits(right, self.patterns[:p + 1])[0]
            into = _pattern_logits(self.partner[:, 1:2 * p + 2:2].T, row[None])[:, 0]
            self.logits[p, :2 * p + 2] = np.stack([out, into], axis=1).ravel()
            self.logits[:p + 1, 2 * p:2 * p + 2] = np.stack([into, out], axis=1)
            self.sp_logits[p, :2 * p + 2] = softplus(self.logits[p, :2 * p + 2])
            self.sp_logits[:p + 1, 2 * p:2 * p + 2] = softplus(self.logits[:p + 1, 2 * p:2 * p + 2])
            self.index[key] = p
            self.n_pat = p + 1
            self.terms.clear()
            self.moves.clear()
        self.pat[n] = self.index[key]
        self.pat3[n] = 3 * self.pat[n]

    def _flagged(self) -> np.ndarray:
        return (self.delta - self.bound < -FLIP_TOLERANCE).any(axis=1)

    def _move_table(self, p_old: int, p_new: int) -> np.ndarray:
        """The terms of a node's entries at a node going from pattern p_old to p_new.

        Axes: the node's side, (delta move, 2 beta mass after), 3 * its
        pattern + the kind of its entry (0 unobserved, 1 y = 0, 2 y = 1;
        _MaskIndex.kind), feature.
        """
        n_pat, k_plus = self.n_pat, self.z.shape[1]
        columns = [2 * p_old, 2 * p_old + 1, 2 * p_new, 2 * p_new + 1]
        # axes: n's pattern, m's column (before, then after), feature
        shifts = (1.0 - 2.0 * self.patterns[:n_pat, None]) * self.partner[:, columns].T
        sp_a = self.sp_logits[:n_pat, columns, None]
        sp_x = softplus(self.logits[:n_pat, columns, None] + shifts)
        delta, mass = sp_x - sp_a, 2.0 * self.beta * (sp_x[:, 2:] + sp_a[:, 2:] + 1.0)
        table = np.zeros((2, 2, n_pat, 3, k_plus))
        moves = table.transpose(3, 2, 0, 1, 4)  # axes: kind, pattern, side, (delta, mass), feature
        np.subtract(delta[:, 2:], delta[:, :2], out=moves[1, :, :, 0])
        np.subtract(moves[1, :, :, 0], shifts[:, 2:] - shifts[:, :2], out=moves[2, :, :, 0])
        moves[1, :, :, 1] = mass
        np.add(mass, 2.0 * self.beta * np.abs(shifts[:, 2:]), out=moves[2, :, :, 1])
        return table.reshape(2, 2, 3 * n_pat, k_plus)

    def move(self, m: int, p_old: int) -> None:
        """Move the other nodes' rows and counts from node m at pattern p_old to its pattern now.

        Node n's entries at m are (n, m), on its row side, and (m, n), on its
        column side. Their terms depend only on n's pattern and m's, so they
        are scored once per pattern of n, with m before and after (a move
        table, cached in ``moves``), and each side is gathered with one take
        at 3 * n's pattern (``pat3``) + the kind of n's entry at m. A node
        with an entry at m is reopened if its screen no longer holds.
        """
        p_new = self.pat[m]
        if (p_old, p_new) not in self.moves:
            self.moves[p_old, p_new] = self._move_table(p_old, p_new)
        row_side, column_side = self.moves[p_old, p_new]
        kind = self.idx.kind[m]
        rows = row_side.take(self.pat3 + kind[0], axis=1)
        rows += column_side.take(self.pat3 + kind[1], axis=1)
        self.delta += rows[0]
        self.bound += rows[1] + _UNIT_ROUNDOFF * np.abs(self.delta)
        at = self.idx.at[m]
        self.counts[:, 2 * p_old:2 * p_old + 2] -= at
        self.counts[:, 2 * p_new:2 * p_new + 2] += at
        # a node with no observed entry at m sees no change: it keeps its state
        self.open = np.where(self.idx.touched[m], self._flagged(), self.open)

    def reset(self, n: int, delta, mass) -> None:
        """Take node n's row from the kernel's scores of every k in the current Z.

        The row is within beta * mass of kappa, as is the kernel's next
        visit, so n stays open only if the row could hold a flip the
        kernel accepts; that rule does not subtract the kernel's own
        beta * mass, so it is looser than the kernel's.
        """
        self.delta[n] = delta
        self.bound[n] = 2.0 * self.beta * mass
        self.open[n] = np.count_nonzero(delta - self.bound[n] < -FLIP_TOLERANCE) > 0


def _next_true(flags: np.ndarray, start: int) -> int:
    """Index of the first True in flags at or after start, len(flags) if there is none."""
    if start < len(flags):
        start += int(flags[start:].argmax())
        if flags[start]:
            return start
    return len(flags)


def _sweep(idx: _MaskIndex, state: ModelState) -> bool:
    """Row-major passes over all (n, k) on the patterns of Z, screened by a maintained delta table.

    Sweeps to a one-flip fixed point: every provably improving flip is
    taken, passes repeat until one takes none, and the return value says
    whether any flip happened. It reads Z, W and the mask only and flips
    state.z in place. The first flip a sweep takes is scored on Z as it
    stands, so sweeping a copy tells whether a state is a one-flip fixed
    point and leaves the state as it is; fit asks that before it declares
    convergence.

    The flips are exactly those of visiting every node in every pass with
    the kernel (_DeltaTable.scores): node n's K flips are scored at once on
    its K x 2P partner terms, the first k with delta + beta * mass <
    -FLIP_TOLERANCE is flipped, and the row is scored again on n's new
    pattern, where the first improving feature after k is flipped next, and
    so on. As the kernel's delta is within beta * mass
    of kappa (below), an accepted flip lowers the objective by more than
    FLIP_TOLERANCE in exact arithmetic on the pattern logits, so passes
    cannot cycle.

    The bound: for entry (n, k) let kappa be the delta in exact arithmetic
    of the pattern logits a and shifts s the kernel reads, and mass the sum
    over n's 2P partner columns of count * (sp(a + s) + sp(a) + 1) +
    positives * |s| (plus the diagonal's terms). The kernel's delta is
    within beta * mass of kappa, beta = u (4N + 64) for unit roundoff u:
    each of its sums has 2P weighted terms, of which only the partner
    columns with an observed entry, at most 2N, are nonzero, adding an
    exact zero rounds nothing, and beta is twice that first-order bound.

    The screen (_DeltaTable) holds every node's K deltas, built from the
    same partner terms per pattern, each with a bound on its distance from
    the kernel's value: error + beta * mass, for error a bound on
    |table - kappa|. A newly built entry and a kernel row's reset start the
    error at beta * mass, so the bound at 2 beta * mass. After node m's
    flips, only the other nodes' entries at m change, from mass m_before to
    m_after: the error grows by beta (m_before + m_after) plus u |table|
    and the mass by m_after - m_before, so the bound grows by
    2 beta m_after + u |table|. A pass visits only nodes with an entry
    below -FLIP_TOLERANCE after subtracting its bound; the kernel would
    reject every flip of the others.

    A node's row moves by the terms of its entries at m before and after,
    read from one softplus pass per pattern, and m's row is re-scored by
    the kernel. A node the kernel has just visited without flipping stays
    closed until a flip touches one of its entries. The screen opens a
    node when the kernel's delta could fall below -FLIP_TOLERANCE; it does
    not subtract the kernel's own beta * mass, so it opens every node whose
    flip the kernel could accept.

    A visit takes its first flip k from the screen row, without the kernel,
    when every earlier k' has row - bound >= -FLIP_TOLERANCE and k has
    row + 2 bound < -FLIP_TOLERANCE; otherwise the kernel decides. It is
    the kernel's first flip: the kernel's delta at k' is at least row -
    bound, so delta + beta * mass >= -FLIP_TOLERANCE rejects k'; at k it is
    at most row + bound, and beta * mass <= bound / 2 since every bound is
    at least 2 beta * mass, so delta + beta * mass <= row + 3/2 bound <
    -FLIP_TOLERANCE accepts k. The kernel then scores n's new pattern and
    the visit goes on from k + 1 as before.
    """
    if state.k_plus == 0:
        return False
    screen = _DeltaTable(idx, state)
    n_nodes, k_plus = state.z.shape
    improved = False
    while True:
        flipped = False
        n = _next_true(screen.open, 0)
        while n < n_nodes:
            p_old, row, bound, k = screen.pat[n], screen.delta[n], screen.bound[n], 0
            first = int(np.argmax(row - bound < -FLIP_TOLERANCE))
            if row[first] + 2.0 * bound[first] < -FLIP_TOLERANCE:
                # the screen proves the kernel's first accepted flip is at first
                screen.flip(n, first)
                k = first + 1
            delta, mass = screen.scores(n)
            while (k := _next_true(delta + screen.beta * mass < -FLIP_TOLERANCE, k)) < k_plus:
                screen.flip(n, k)
                delta, mass = screen.scores(n)
                k += 1
            if screen.pat[n] != p_old:
                screen.move(n, p_old)
                flipped = True
            screen.reset(n, delta, mass)
            if screen.pat[n] == p_old:
                # the kernel just rejected every flip of n in this very Z
                screen.open[n] = False
            n = _next_true(screen.open, n + 1)
        if not flipped:
            return improved
        improved = True


def optimize_w(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState,
               stats: _PairStats | None = None) -> ModelState:
    """Damped Newton on W for fixed Z (the objective is convex here).

    The subproblem is a logistic fit with K^2 parameters over the P x P
    pattern pairs of _PairStats, built with one pass over the observed
    entries unless the caller passes ``stats``, those of (y, mask,
    state.z); its iterates are those of Newton over the individual entries,
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
    these, the stall guard, ends the step.
    """
    if state.k_plus == 0:
        return state
    if stats is None:
        stats = _PairStats(y, mask, state.z)
    basis = stats.observed_basis()
    w = state.w.copy()
    n_params = w.size

    # the clamped exp(-|a|) of each accepted logit table serves its loss and sigmoid
    a = stats.logits(w)
    e = _exp_neg_abs(a)
    f = stats.loss(a, e)
    if not np.isfinite(f):
        raise NumericalError("non-finite objective entering the W step", state)

    for _ in range(W_MAX_STEPS):
        p = np.where(a >= 0, 1.0, e) / (1.0 + e)
        grad = stats.gradient(p)
        if np.abs(grad).max() < W_GRAD_TOL:
            break
        h = stats.hessian(p)
        damping = 1e-8 * max(1.0, h.trace() / n_params)
        h = basis.T @ h @ basis
        h.reshape(-1)[::len(h) + 1] += damping  # its diagonal: a BLAS product is C-contiguous
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
            e_new = _exp_neg_abs(a_new)
            f_new = stats.loss(a_new, e_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted or f_new >= f:
            break  # line search exhausted; no strict descent available
        w += step * d
        a, e = a_new, e_new
        # stall guard: once per-step progress is below measurement noise,
        # further steps cannot change the outer loop's decisions
        if (f - f_new) < 1e-12 * max(1.0, abs(f)):
            break
        f = f_new
    state.w = w
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
    the new column); then takes the W step on the full W, sweeps the
    candidate's coordinates to a fixed point, using fit's index ``idx`` of
    (y, mask), and drops the columns that sweep emptied, the new one or an
    old one. The input state is not mutated.
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

    candidate = ModelState(z_new, w_new, state.lam)
    optimize_w(y, mask, candidate, _PairStats(y, mask, z_new, idx.flags))
    _sweep(idx, candidate)
    return prune_empty_features(candidate)


def prune_empty_features(state: ModelState) -> ModelState:
    """Drop all-zero membership columns (and their W rows/columns) in place.

    Only a sweep empties a column, so fit and propose_feature call this
    right after each sweep whose state they keep, and every state a W step
    or an objective reads has no empty column. Inert columns add exact
    zeros to every sum of the pattern logit table (model._pattern_caches),
    so the logits keep their bits; only the penalty drops, by lam^2 per
    removed column.
    """
    keep = state.z.any(axis=0)
    if keep.all():
        return state
    state.z = state.z[:, keep]
    state.w = state.w[np.ix_(keep, keep)]
    return state


def fit(
    y: AdjacencyMatrix,
    mask: ObservationMask,
    config: FitConfig,
    on_iteration=None,
) -> FitReport:
    """Run the full greedy loop and return its report.

    Each outer iteration: sweep Z to a one-flip fixed point, drop the
    communities it emptied, take the damped-Newton W step, then one
    grow-by-one proposal, accepted only if it strictly lowers the
    objective. If the iteration's relative improvement is below rel_tol
    and that proposal is rejected, up to BIRTH_RETRIES more single-node
    births are drawn from the same RNG stream, and the first that lowers
    the objective is kept. The run converges when R+1 births were rejected
    (R = BIRTH_RETRIES) and a sweep of a copy of the state takes no flip,
    so the returned state is a one-flip local minimum. Sweeping a copy
    leaves the state the trace describes, also when the copy takes a flip
    and the fit then stops at max_outer_iters; the copy is thrown away, so
    it needs no prune. A non-finite objective at the end of an outer
    iteration raises NumericalError.

    After an accepted birth the next iteration does not sweep: the
    candidate's sweep has just left the state at a fixed point. A sweep
    there would start from a table built in another pattern order, so it
    could differ only by taking a flip that lowers the objective by less
    than FLIP_TOLERANCE + 2 beta * mass (see _sweep), one the candidate's
    last pass did not take.

    Only a sweep empties a community, and the state of every sweep fit
    keeps, its own or a candidate's, is pruned right after it: every state
    that reaches a W step, an objective or the trace is charged lam^2 per
    non-empty community, and a birth whose sweep empties an old community
    is scored at the count it keeps. The one exception is the start's
    objective, of the initial draw, the reference of the first iteration's
    improvement. Z is grouped into pattern pairs (_PairStats) once per
    grouping: the W step and the objective after it share one grouping, and
    an accepted candidate's grouping, made for its objective, serves the
    next iteration, whose Z is the candidate's.

    ``on_iteration(iteration, state, seconds)``, if given, is called after
    each outer iteration, its convergence scan included, with seconds the
    sum of the report's elapsed so far: a call runs outside every
    iteration's span, so the callbacks' own time is not counted.

    Deterministic for a fixed config: one RNG stream seeded with config.seed
    drives initialization and every birth proposal.
    """
    if y.n != mask.n:
        raise ValueError(f"adjacency n={y.n} and mask n={mask.n} disagree")
    rng = np.random.default_rng(config.seed)
    state = init_state(y.n, config, rng=rng)
    idx = _MaskIndex(y, mask)
    report = FitReport()
    q = objective(y, mask, state)
    settled, stats = False, None

    for iteration in range(config.max_outer_iters):
        t_iter = time.perf_counter()
        q_start = q

        if not settled:
            _sweep(idx, state)
            state = prune_empty_features(state)
            stats = _PairStats(y, mask, state.z, idx.flags)
        optimize_w(y, mask, state, stats)
        q = objective(y, mask, state, stats)
        stalled = (q_start - q) / max(abs(q_start), 1e-12) < config.rel_tol
        # one birth, and BIRTH_RETRIES more if the iteration would otherwise stop
        births = 1 + BIRTH_RETRIES if stalled else 1
        birth_accepted = False
        for proposed in range(1, births + 1):
            candidate = propose_feature(idx, y, mask, state, config, rng)
            candidate_stats = _PairStats(y, mask, candidate.z, idx.flags)
            q_candidate = objective(y, mask, candidate, candidate_stats)
            if q_candidate < q - FLIP_TOLERANCE:
                state, q, stats, birth_accepted = candidate, q_candidate, candidate_stats, True
                break
        report.births_proposed.append(proposed)
        report.accepted_births.append(birth_accepted)
        settled = birth_accepted

        if not math.isfinite(q):
            raise NumericalError(f"non-finite objective {q} after outer iteration {iteration}", state)
        # converged only at a one-flip local minimum, as the W step may have moved
        # a coordinate's best value; the copy keeps the state the trace describes
        report.converged = stalled and not birth_accepted and not _sweep(idx, state.copy())
        report.objective_trace.append(q)
        report.k_trace.append(state.k_plus)
        report.elapsed.append(time.perf_counter() - t_iter)
        if on_iteration is not None:
            on_iteration(iteration, state, sum(report.elapsed))
        if report.converged:
            break

    report.final_state = state
    return report
