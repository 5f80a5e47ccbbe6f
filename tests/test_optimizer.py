"""Greedy optimizer: flip deltas, sweeps, W descent, births, pruning, full fits."""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize, minimize_scalar

from laftr import (
    AdjacencyMatrix,
    FitConfig,
    ModelState,
    ObservationMask,
    block_weights,
    fit,
    init_state,
    negative_log_likelihood,
    objective,
    optimize_w,
    planted_blocks,
    prune_empty_features,
    sample_edges,
    sample_lfrm,
    sigmoid,
    softplus,
    split_observations,
)
from laftr import optimizer
from laftr.model import _exp_neg_abs, _PairStats
from conftest import (
    assert_monotone_trace,
    delta_objective_flip,
    exhaustive_flip_improvements,
    max_logit_error,
    nll_gradient_w,
    oracle_caches,
    oracle_flip_delta,
    oracle_flip_score,
    oracle_nll,
    oracle_optimize_w,
    oracle_pattern_score,
    oracle_pattern_sweep,
    oracle_pattern_sweep_pass,
    oracle_sweep_pass,
    random_instance,
    sweep_patterns,
    sweep_to_fixed_point,
)


class TestFitConfig:
    def test_defaults_valid(self):
        config = FitConfig()
        assert config.lam == 0.5
        assert config.k_init == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"sigma_w": -1.0},
            {"k_init": 0},
            {"max_outer_iters": 0},
            {"rel_tol": 0.0},
            {"lam": float("nan")},
            {"sigma_w": float("nan")},
            {"rel_tol": float("nan")},
            {"sigma_w": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


class TestInitState:
    def test_deterministic(self):
        config = FitConfig(seed=42, k_init=3)
        s1 = init_state(10, config)
        s2 = init_state(10, config)
        assert np.array_equal(s1.z, s2.z)
        assert np.array_equal(s1.w, s2.w)

    def test_shapes(self):
        state = init_state(4, FitConfig(k_init=1))
        assert state.z.shape == (4, 1)
        assert state.w.shape == (1, 1)

    def test_fair_coin_memberships(self):
        state = init_state(10_000, FitConfig(seed=0, k_init=1))
        assert state.z.mean() == pytest.approx(0.5, abs=0.02)

    def test_w_scale(self):
        state = init_state(200, FitConfig(seed=1, k_init=30, sigma_w=2.0))
        assert state.w.std() == pytest.approx(2.0, rel=0.1)


class TestDeltaObjectiveFlip:
    def test_involution(self, rng):
        y, mask, state = random_instance(rng, 6, 2)
        for n, k in ((0, 0), (3, 1), (5, 0)):
            d1 = delta_objective_flip(y, mask, state, n, k)
            state.z[n, k] = 1.0 - state.z[n, k]
            d2 = delta_objective_flip(y, mask, state, n, k)
            state.z[n, k] = 1.0 - state.z[n, k]
            assert d1 + d2 == pytest.approx(0.0, abs=1e-9)

    def test_matches_full_recompute(self, rng):
        y, mask, state = random_instance(rng, 6, 2)
        for n in range(6):
            for k in range(2):
                fast = delta_objective_flip(y, mask, state, n, k)
                slow = oracle_flip_delta(y, mask, state, n, k)
                assert fast == pytest.approx(slow, abs=1e-8)

    def test_matches_recompute_with_diagonal_observed(self, rng):
        y, mask, state = random_instance(rng, 5, 2)
        mask = ObservationMask.full(5, include_diagonal=True)
        for n in range(5):
            for k in range(2):
                fast = delta_objective_flip(y, mask, state, n, k)
                slow = oracle_flip_delta(y, mask, state, n, k)
                assert fast == pytest.approx(slow, abs=1e-8)

    def test_inert_feature_delta_exactly_zero(self, rng):
        y, mask, _ = random_instance(rng, 5, 2)
        z = (rng.random((5, 2)) < 0.5).astype(float)
        w = rng.normal(size=(2, 2))
        w[1, :] = 0.0
        w[:, 1] = 0.0
        state = ModelState.from_factors(z, w, 0.5)
        for n in range(5):
            assert delta_objective_flip(y, mask, state, n, 1) == 0.0


class TestSweep:
    def test_fixed_point_reports_no_improvement(self, rng):
        y, mask, state = random_instance(rng, 5, 2)
        sweep_to_fixed_point(y, mask, state)
        z_before = state.z.copy()
        improved = sweep_to_fixed_point(y, mask, state)
        assert improved is False
        assert np.array_equal(state.z, z_before)

    def test_fixed_point_passes_exhaustive_oracle(self, rng):
        y, mask, state = random_instance(rng, 4, 2)
        sweep_to_fixed_point(y, mask, state)
        deltas = exhaustive_flip_improvements(y, mask, state)
        assert deltas.min() >= -1e-8

    def test_never_increases_objective(self, rng):
        y, mask, state = random_instance(rng, 7, 3)
        before = objective(y, mask, state)
        sweep_to_fixed_point(y, mask, state)
        assert objective(y, mask, state) <= before + 1e-9

    def test_empty_graph_positive_weights_empties_rows(self, rng):
        # with no edges and strongly positive weights, every 1 that interacts
        # with another node is dropped; survivors can only sit in a single row
        # (they touch the excluded diagonal only)
        y = AdjacencyMatrix(6, np.zeros((6, 6)))
        mask = ObservationMask.full(6)
        z = (rng.random((6, 2)) < 0.7).astype(float)
        w = np.full((2, 2), 5.0)
        state = ModelState.from_factors(z, w, 0.5)
        trace = [objective(y, mask, state)]
        sweep_to_fixed_point(y, mask, state)
        trace.append(objective(y, mask, state))
        assert (np.diff(trace) <= 1e-9).all()
        rows_with_ones = np.flatnonzero(state.z.sum(axis=1) > 0)
        assert len(rows_with_ones) <= 1

    def test_updates_keep_caches_coherent(self, rng):
        y, mask, state = random_instance(rng, 8, 3)
        sweep_to_fixed_point(y, mask, state)
        assert max_logit_error(state) < 1e-9


@st.composite
def sweep_instances(draw, w_max=400.0):
    """(y, mask, state) with a random mask, the diagonal all observed or none.

    W entries reach +-w_max; at the default +-400, as in criterion-2 fits
    that separate their data, logits saturate far past the softplus
    clamp's reach. Near 0 (where hypothesis shrinks to) flip deltas tie at
    exactly 0. K ranges down to 0.
    """
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 5))
    z = draw(arrays(bool, (n, k)))
    w = draw(arrays(float, (k, k), elements=st.floats(-w_max, w_max)))
    entries = draw(arrays(bool, (n, n)))
    observed = draw(arrays(bool, (n, n)))
    np.fill_diagonal(observed, draw(st.booleans()))
    return (AdjacencyMatrix(n, entries), ObservationMask(n, observed),
            ModelState.from_factors(z, w, 0.5))


def _oracle_fixed_point(y, mask, state, max_passes=50):
    """(whether anything flipped, fixed point) of repeated pattern-oracle passes on a copy of state.

    Every accepted flip provably lowers the objective, even on saturated
    logits, so the passes must stop within max_passes.
    """
    fixed = state.copy()
    patterns = sweep_patterns(fixed.z)
    for passes in range(max_passes):
        if not oracle_pattern_sweep_pass(y, mask, fixed, True, patterns):
            return passes > 0, fixed
    raise AssertionError(f"no one-flip fixed point within {max_passes} passes")


_Table = optimizer._DeltaTable


def _kernel_rows(idx, z, w):
    """N x K flip deltas and masses of every node, scored by a kernel on fresh patterns."""
    table = _Table(idx, ModelState.from_factors(z, w, 0.5))
    return map(np.array, zip(*(table.scores(n) for n in range(len(z)))))


def _mass_rows(idx, z, w):
    """N x K mass of every node's flips, summed entry by entry from its definition in _sweep."""
    n_nodes, k_plus = z.shape
    logits, left_cache, right_cache = oracle_caches(z, w)
    sign = 1.0 - 2.0 * z
    mass = np.zeros((n_nodes, k_plus))
    for n in range(n_nodes):
        for j in range(n_nodes):
            for i, jj, cache in ((n, j, left_cache[j]), (j, n, right_cache[j])):
                observed, positive = idx.at[i, :, 1, jj]  # the entry (i, jj)
                if observed:
                    a, shift = logits[i, jj], sign[n] * cache
                    mass[n] += (softplus(a + shift) + softplus(a)
                                + positive * np.abs(shift) + 1.0)
        if idx.diag_observed[n]:
            left, right, w_diag = left_cache[n], right_cache[n], np.diagonal(w)
            a = logits[n, n]
            mass[n] += (softplus(a + sign[n] * (left + right) + w_diag) + softplus(a)
                        + np.abs(left) + np.abs(right) + np.abs(w_diag) + 1.0)
    return mass


class _CheckedTable(_Table):
    """The sweep's delta table, checked when built and after each kernel visit.

    A visit follows each node's accepted flips, so every Z the screen reads
    is checked: each entry lies within its bound of a fresh kernel row,
    scored on patterns counted afresh; the bound never claims the table is
    closer to the kernel than twice the kernel's own rounding, beta * mass;
    and the kernel's mass follows its definition. A built table starts
    every bound at 2 beta * mass, the kernel reset's rule.
    """

    def __init__(self, idx, state):
        super().__init__(idx, state)
        np.testing.assert_allclose(self.bound, 2.0 * self.beta * self.check(), rtol=1e-9)

    def reset(self, *args):
        super().reset(*args)
        self.check()

    def check(self):
        kernel, mass = _kernel_rows(self.idx, self.z, self.w)
        assert (np.abs(self.delta - kernel) <= self.bound).all()
        assert (self.bound >= 2.0 * self.beta * mass * (1.0 - 1e-9)).all()
        np.testing.assert_allclose(mass, _mass_rows(self.idx, self.z, self.w), rtol=1e-9)
        return mass


def _saturated_problem():
    """A state hypothesis drew at W +-400 (the exact W value matters).

    Every y = 1, one node is in feature 0, and W saturates every logit but two.
    """
    w = np.full((5, 5), 264.76327450055294)
    w[0, 0] = w[0, 3] = 0.0
    z = np.zeros((9, 5))
    z[3, 0] = 1.0
    observed = ~np.eye(9, dtype=bool)
    observed[0, 4] = False
    y, mask = AdjacencyMatrix(9, np.ones((9, 9))), ObservationMask(9, observed)
    return y, mask, ModelState.from_factors(z, w, 0.5)


class _ScreenCheckedTable(_Table):
    """The sweep's delta table, checking every flip the screen takes without the kernel.

    A flip of node n with no kernel call on n since the last visit ended
    (reset) is screen-decided: a kernel on patterns counted afresh must
    accept that k first in the same Z. ``decided`` collects them.
    """

    def __init__(self, idx, state, loose=False):
        super().__init__(idx, state)
        self.scored, self.decided = None, []
        if loose:
            # still a bound, but no longer tight: the even features' first
            # flips are left to the kernel while the odd ones may be decided
            self.bound[:, ::2] += np.abs(self.delta[:, ::2]) + 1.0

    def scores(self, n):
        self.scored = n
        return super().scores(n)

    def reset(self, *args):
        super().reset(*args)
        self.scored = None

    def flip(self, n, k):
        if self.scored != n:
            fresh = _Table(self.idx, ModelState(self.z.copy(), self.w, 0.5))
            delta, mass = fresh.scores(n)
            accepted = np.flatnonzero(delta + fresh.beta * mass < -optimizer.FLIP_TOLERANCE)
            assert accepted.size and accepted[0] == k
            self.decided.append((n, k))
        super().flip(n, k)


class _CacheCheckedTable(_Table):
    """The sweep's delta table, checking its caches against fresh computations.

    Every reused kernel-term block and move table equals one computed
    afresh, bit for bit, and a flip that appends a pattern leaves both
    caches empty. ``reused`` counts the reuses and ``cleared`` the appends
    that emptied a cache holding entries.
    """

    def __init__(self, idx, state):
        super().__init__(idx, state)
        self.reused = {"terms": 0, "moves": 0}
        self.cleared = 0

    def scores(self, n):
        p = self.pat[n]
        if p in self.terms:
            assert np.array_equal(self.terms[p], self._partner_terms(p))
            self.reused["terms"] += 1
        return super().scores(n)

    def move(self, m, p_old):
        key = (p_old, self.pat[m])
        if key in self.moves:
            assert np.array_equal(self.moves[key], self._move_table(*key))
            self.reused["moves"] += 1
        super().move(m, p_old)

    def flip(self, n, k):
        n_pat, cached = self.n_pat, bool(self.terms or self.moves)
        super().flip(n, k)
        if self.n_pat > n_pat:
            assert not self.terms and not self.moves
            self.cleared += cached


def _tables_of(patch, table_class):
    """Patch table_class in as the sweep's table; the list collects every table built."""
    tables = []
    patch.setattr(optimizer, "_DeltaTable",
                  lambda *args: tables.append(table_class(*args)) or tables[-1])
    return tables


class TestSweepKernel:
    """The screened pattern sweep against the one-flip-at-a-time oracles."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_apply_pass_takes_the_oracle_flips(self, problem):
        y, mask, state = problem
        expected_flag, expected = _oracle_fixed_point(y, mask, state)
        flag = optimizer._sweep(optimizer._MaskIndex(y, mask), state)
        assert flag == expected_flag
        assert np.array_equal(state.z, expected.z)
        assert max_logit_error(state) < 1e-9

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_scan_matches_oracle_without_mutating(self, problem):
        # fit's convergence check: a sweep of a copy flips something exactly
        # when one oracle pass over the state finds an improving flip
        y, mask, state = problem
        before = state.copy()
        expected = oracle_pattern_sweep_pass(y, mask, state.copy(), False, sweep_patterns(state.z))
        assert optimizer._sweep(optimizer._MaskIndex(y, mask), state.copy()) == expected
        for name in ("z", "w", "logits"):
            assert np.array_equal(getattr(state, name), getattr(before, name)), name

    @pytest.mark.parametrize("diagonal", [False, True])
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=sweep_instances(),
           patches=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 4)), max_size=6))
    def test_table_entries_within_bound_of_the_kernel(self, diagonal, problem, patches):
        y, mask, state = problem
        observed = mask.observed.copy()
        np.fill_diagonal(observed, diagonal)
        mask = ObservationMask(state.n, observed)
        for n, k in patches if state.k_plus else ():
            n, k = n % state.n, k % state.k_plus
            state.z[n, k] = 1.0 - state.z[n, k]
        _oracle_fixed_point(y, mask, state)
        with pytest.MonkeyPatch.context() as patch:
            tables = _tables_of(patch, _CheckedTable)
            optimizer._sweep(optimizer._MaskIndex(y, mask), state)
        assert len(tables) == (state.k_plus > 0)

    def test_saturated_scan_reaches_a_fixed_point(self):
        y, mask, state = _saturated_problem()
        # the oracle under a pass cap, then the screened sweep to the same point
        swept = state.copy()
        caches = oracle_caches(state.z, state.w)
        passes = 0
        while passes < 100 and oracle_sweep_pass(y, mask, state, caches):
            passes += 1
        assert passes < 100, "no one-flip fixed point within 100 passes"
        sweep_to_fixed_point(y, mask, swept)
        assert np.array_equal(swept.z, state.z)

    @pytest.mark.parametrize("loose", [False, True])
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_screen_decided_flips_are_the_kernel_flips(self, loose, problem):
        y, mask, state = problem
        with pytest.MonkeyPatch.context() as patch:
            _tables_of(patch, lambda *args: _ScreenCheckedTable(*args, loose=loose))
            optimizer._sweep(optimizer._MaskIndex(y, mask), state)

    def test_screen_decides_flips_on_the_saturated_state(self):
        y, mask, state = _saturated_problem()
        expected = state.copy()
        sweep_to_fixed_point(y, mask, expected)
        with pytest.MonkeyPatch.context() as patch:
            tables = _tables_of(patch, _ScreenCheckedTable)
            sweep_to_fixed_point(y, mask, state)
        assert np.array_equal(state.z, expected.z)
        assert tables[0].decided

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_cached_terms_and_moves_are_fresh_bit_for_bit(self, problem):
        y, mask, state = problem
        with pytest.MonkeyPatch.context() as patch:
            _tables_of(patch, _CacheCheckedTable)
            optimizer._sweep(optimizer._MaskIndex(y, mask), state)

    def test_caches_are_reused_and_emptied_when_a_pattern_appears(self, monkeypatch):
        # a whole planted fit: its sweeps reuse both caches and append patterns
        # to tables whose caches hold entries
        y, mask, config = _planted_problem(0)
        tables = _tables_of(monkeypatch, _CacheCheckedTable)
        fit(y, mask, config)
        assert all(sum(t.reused[name] for t in tables) for name in ("terms", "moves"))
        assert sum(t.cleared for t in tables) > 0

    def test_screen_saves_kernel_calls(self, monkeypatch):
        # without the screen-decided flip every visit and every flip calls the
        # kernel once; a visit ends in reset
        y, mask, config = _planted_problem(0)
        calls = {"scores": 0, "reset": 0, "flip": 0}
        for name in calls:
            def counted(table, *args, _name=name, _method=getattr(_Table, name)):
                calls[_name] += 1
                return _method(table, *args)
            monkeypatch.setattr(_Table, name, counted)
        fit(y, mask, config)
        assert 0 < calls["scores"] < calls["reset"] + calls["flip"]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_kernel_rows_are_the_pattern_oracle_bit_for_bit(self, problem):
        y, mask, state = problem
        if state.k_plus == 0:
            return
        delta, mass = _kernel_rows(optimizer._MaskIndex(y, mask), state.z, state.w)
        patterns = sweep_patterns(state.z)
        expected = np.array([[oracle_pattern_score(y, mask, state.z, state.w, patterns, n, k)
                              for k in range(state.k_plus)] for n in range(state.n)])
        assert np.array_equal(delta, expected[..., 0])
        assert np.array_equal(mass, expected[..., 1])

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_kernel_within_beta_mass_of_the_entrywise_deltas(self, problem):
        # both sum the same exact delta of the pattern logits, each within
        # half its rounding bound beta * mass
        y, mask, state = problem
        if state.k_plus == 0:
            return
        idx = optimizer._MaskIndex(y, mask)
        delta, mass = _kernel_rows(idx, state.z, state.w)
        caches = oracle_caches(state.z, state.w)
        entrywise = np.array([[oracle_flip_score(y, mask, state, caches, n, k)
                               for k in range(state.k_plus)] for n in range(state.n)])
        beta = optimizer._rounding_beta(state.n)
        assert (np.abs(delta - entrywise[..., 0]) <= beta * mass).all()
        np.testing.assert_allclose(mass, entrywise[..., 1], rtol=1e-9)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_fixed_point_has_no_recomputed_improvement(self, problem):
        # the kernel rejected every flip, delta + beta * mass >= -FLIP_TOLERANCE,
        # and a recomputed delta is within beta * mass of the kernel's
        y, mask, state = problem
        idx = optimizer._MaskIndex(y, mask)
        optimizer._sweep(idx, state)
        if state.k_plus == 0:
            return
        _, mass = _kernel_rows(idx, state.z, state.w)
        bound = optimizer.FLIP_TOLERANCE + 2.0 * optimizer._rounding_beta(state.n) * mass
        assert (exhaustive_flip_improvements(y, mask, state) >= -bound).all()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_mask_index_kinds_are_the_per_move_sums(self, problem):
        # a move reads each entry's kind as at[m, 0] + at[m, 1]; an observed
        # diagonal counts as unobserved
        y, mask, _ = problem
        idx = optimizer._MaskIndex(y, mask)
        for m in range(y.n):
            kind = np.add(idx.at[m, 0], idx.at[m, 1], dtype=np.intp)
            assert np.array_equal(idx.kind[m], kind)
            assert np.array_equal(idx.touched[m], kind.any(axis=0))
        assert not idx.kind[np.arange(y.n), :, np.arange(y.n)].any()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances(w_max=8.0))
    def test_public_delta_matches_recompute(self, problem):
        y, mask, state = problem
        for n in range(state.n):
            for k in range(state.k_plus):
                assert delta_objective_flip(y, mask, state, n, k) == pytest.approx(
                    oracle_flip_delta(y, mask, state, n, k), abs=1e-8)


class TestOptimizeW:
    def test_zero_memberships_leave_w_unchanged(self, rng):
        y, mask, _ = random_instance(rng, 4, 2)
        w = rng.normal(size=(2, 2))
        state = ModelState.from_factors(np.zeros((4, 2)), w, 0.5)
        optimize_w(y, mask, state)
        assert np.array_equal(state.w, w)

    def test_single_parameter_against_golden_section(self):
        # one observed positive entry and a single shared feature: the NLL is
        # softplus(-w), minimized by pushing w up
        entries = np.zeros((2, 2), dtype=np.int8)
        entries[0, 1] = 1
        y = AdjacencyMatrix(2, entries)
        observed = np.zeros((2, 2), dtype=bool)
        observed[0, 1] = True
        mask = ObservationMask(2, observed)
        state = ModelState.from_factors(np.ones((2, 1)), np.zeros((1, 1)), 0.5)
        optimize_w(y, mask, state)

        from laftr import link_probability

        assert link_probability(state, 0, 1) > 0.99

        def nll_1d(w):
            s = ModelState.from_factors(np.ones((2, 1)), np.array([[w]]), 0.5)
            return negative_log_likelihood(y, mask, s)

        best = minimize_scalar(nll_1d, bracket=(0.0, 30.0), method="golden")
        fitted = negative_log_likelihood(y, mask, state)
        assert fitted <= nll_1d(0.0)
        assert fitted <= best.fun + 0.01

    def test_objective_never_increases(self, rng):
        for trial in range(5):
            y, mask, state = random_instance(rng, 6, 2)
            before = objective(y, mask, state)
            optimize_w(y, mask, state)
            assert objective(y, mask, state) <= before + 1e-9

    def test_rebuilds_caches(self, rng):
        y, mask, state = random_instance(rng, 6, 2)
        optimize_w(y, mask, state)
        assert max_logit_error(state) < 1e-9


def _w_subproblem(patterns, rows, w, entries, observed):
    z = np.asarray(patterns, dtype=float)[rows]
    n = len(rows)
    return AdjacencyMatrix(n, entries), ObservationMask(n, observed), ModelState.from_factors(z, w, 0.5)


@st.composite
def w_subproblems(draw):
    """(y, mask, state) with few distinct membership rows, so rows repeat.

    The mask is random over all N x N entries, diagonal included, and
    sometimes empty; K ranges down to 0.
    """
    n = draw(st.integers(1, 9))
    k = draw(st.integers(0, 4))
    patterns = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                             min_size=1, max_size=3))
    rows = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=n, max_size=n))
    w = draw(arrays(float, (k, k), elements=st.floats(-8.0, 8.0)))
    entries = draw(arrays(bool, (n, n)))
    observed = draw(st.one_of(st.just(np.zeros((n, n), dtype=bool)), arrays(bool, (n, n))))
    return _w_subproblem(patterns, rows, w, entries, observed)


DIAG_OBSERVED = _w_subproblem([[1, 0], [1, 1]], [0, 1, 0, 1, 1], np.array([[2.0, -1.0], [0.5, 3.0]]),
                              np.eye(5, dtype=bool) | np.eye(5, k=1, dtype=bool),
                              np.ones((5, 5), dtype=bool))
EMPTY_MASK = _w_subproblem([[1, 1]], [0, 0, 0], np.array([[1.0, 2.0], [-3.0, 4.0]]),
                           np.ones((3, 3), dtype=bool), np.zeros((3, 3), dtype=bool))
ZERO_FEATURES = _w_subproblem([[]], [0, 0, 0, 0], np.zeros((0, 0)),
                              np.eye(4, k=1, dtype=bool), ~np.eye(4, dtype=bool))


class TestPairStats:
    """The pattern-pair W-subproblem equals the per-entry one."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(w_subproblems())
    @example(DIAG_OBSERVED)
    @example(EMPTY_MASK)
    @example(ZERO_FEATURES)
    def test_objective_and_gradient_match_dense(self, problem):
        y, mask, state = problem
        stats = _PairStats(y, mask, state.z)
        a = stats.logits(state.w)
        # relative to the sum of the absolute per-entry terms: each loss term
        # is at most 1 + |a|, each gradient term at most 1
        loss_scale = max(1.0, mask.count * (1.0 + np.abs(a).max(initial=0.0)))
        nll = oracle_nll(y, mask, state)
        assert abs(stats.loss(a) - nll) <= 1e-9 * loss_scale
        np.testing.assert_allclose(stats.gradient(sigmoid(a)), nll_gradient_w(y, mask, state),
                                   rtol=0, atol=1e-9 * max(1, mask.count))
        assert stats.count.sum() == mask.count
        assert stats.positives.sum() == y.entries[mask.observed].sum()
        assert len(stats.patterns) == len(np.unique(state.z, axis=0))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(w_subproblems())
    @example(DIAG_OBSERVED)
    @example(EMPTY_MASK)
    @example(ZERO_FEATURES)
    def test_fit_flags_and_shared_exp_keep_the_bits(self, problem):
        y, mask, state = problem
        plain = _PairStats(y, mask, state.z)
        weighted = _PairStats(y, mask, state.z, optimizer._MaskIndex(y, mask).flags)
        for name in ("patterns", "count", "positives"):
            got, want = getattr(weighted, name), getattr(plain, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        a = plain.logits(state.w)
        by_softplus = float((plain.count * softplus(a)).sum() - (plain.positives * a).sum())
        assert plain.loss(a, _exp_neg_abs(a)) == plain.loss(a) == by_softplus

    def test_newton_reaches_the_dense_minimizer(self):
        # three membership patterns whose K^2 pair features span W, and links
        # mixed within every pattern pair: the optimum is finite and unique
        rng = np.random.default_rng(7)
        rows = np.arange(15) % 3
        entries = rng.random((15, 15)) < 0.4
        y, mask, state = _w_subproblem([[1, 0], [0, 1], [1, 1]], rows, np.zeros((2, 2)),
                                       entries, ~np.eye(15, dtype=bool))
        stats = _PairStats(y, mask, state.z)
        assert ((stats.positives > 0) & (stats.positives < stats.count)).all()
        optimize_w(y, mask, state)
        assert np.abs(nll_gradient_w(y, mask, state)).max() < optimizer.W_GRAD_TOL

        def dense(flat_w):
            s = ModelState.from_factors(state.z, flat_w.reshape(2, 2), 0.5)
            return oracle_nll(y, mask, s), nll_gradient_w(y, mask, s).ravel()

        best = minimize(dense, np.zeros(4), jac=True, method="BFGS", options={"gtol": 1e-11})
        np.testing.assert_allclose(state.w.ravel(), best.x, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_optimize_w_matches_entrywise_descent(self, seed):
        rng = np.random.default_rng(seed)
        y, mask, state = random_instance(rng, 9, 3)
        state.z[5:] = state.z[0]  # repeated membership rows
        if seed % 2:
            observed = rng.random((9, 9)) < 0.7  # diagonal entries included
            mask = ObservationMask(9, observed)
        expected = oracle_optimize_w(y, mask, state.copy())
        got = optimize_w(y, mask, state.copy())
        np.testing.assert_allclose(got.w, expected.w, rtol=0, atol=1e-8)


def propose_feature(y, mask, state, config, rng):
    return optimizer.propose_feature(optimizer._MaskIndex(y, mask), y, mask, state, config, rng)


class TestProposeFeature:
    def test_candidate_has_one_more_feature(self, rng):
        y, mask, state = random_instance(rng, 5, 2)
        candidate = propose_feature(y, mask, state, FitConfig(), np.random.default_rng(0))
        assert candidate.k_plus == 3

    def test_deterministic_for_fixed_seed(self, rng):
        y, mask, state = random_instance(rng, 5, 2)
        c1 = propose_feature(y, mask, state, FitConfig(), np.random.default_rng(9))
        c2 = propose_feature(y, mask, state, FitConfig(), np.random.default_rng(9))
        assert np.array_equal(c1.z, c2.z)
        assert np.array_equal(c1.w, c2.w)

    def test_input_state_not_mutated(self, rng):
        y, mask, state = random_instance(rng, 5, 2)
        z_before, w_before = state.z.copy(), state.w.copy()
        propose_feature(y, mask, state, FitConfig(), np.random.default_rng(1))
        assert np.array_equal(state.z, z_before)
        assert np.array_equal(state.w, w_before)

    def test_candidate_pays_penalty_for_extra_column(self, rng):
        # the candidate keeps its new column here, so its objective carries
        # one extra lambda^2 term relative to a same-NLL state with k columns
        y, mask, state = random_instance(rng, 5, 2)
        candidate = propose_feature(y, mask, state, FitConfig(), np.random.default_rng(2))
        q = objective(y, mask, candidate)
        nll = negative_log_likelihood(y, mask, candidate)
        assert candidate.k_plus == 3
        assert q == pytest.approx(nll + 3 * 0.25, abs=1e-12)

    def test_grows_from_empty_model(self, rng):
        y, mask, _ = random_instance(rng, 5, 1)
        empty = ModelState.from_factors(np.zeros((5, 0)), np.zeros((0, 0)), 0.5)
        candidate = propose_feature(y, mask, empty, FitConfig(), np.random.default_rng(3))
        assert candidate.k_plus == 1


class TestPrune:
    def test_no_empty_columns_is_identity(self, rng):
        _, _, state = random_instance(rng, 5, 2)
        state.z[:, 0] = 1.0  # ensure occupancy
        state.z[:, 1] = 1.0
        z_before = state.z.copy()
        prune_empty_features(state)
        assert np.array_equal(state.z, z_before)

    def test_drops_penalty_exactly_and_keeps_logits(self, rng):
        y, mask, _ = random_instance(rng, 5, 3)
        z = (rng.random((5, 3)) < 0.5).astype(float)
        z[:, 0] = 1.0
        z[:, 1] = 0.0  # inert column
        z[:, 2] = 1.0
        state = ModelState.from_factors(z, rng.normal(size=(3, 3)), 0.5)
        q_before = objective(y, mask, state)
        logits_before = state.logits.copy()
        prune_empty_features(state)
        assert state.k_plus == 2
        assert np.array_equal(state.logits, logits_before)
        assert q_before - objective(y, mask, state) == pytest.approx(0.25, abs=1e-12)
        assert max_logit_error(state) < 1e-9

    def test_fully_empty_model(self):
        state = ModelState.from_factors(np.zeros((4, 2)), np.ones((2, 2)), 0.5)
        prune_empty_features(state)
        assert state.k_plus == 0
        assert state.w.shape == (0, 0)
        assert np.array_equal(state.logits, np.zeros((4, 4)))


class TestFit:
    def test_empty_mask_converges_immediately(self):
        # nothing is observed: every flip delta is exactly 0 (kept, not taken),
        # so the model converges at once with a penalty-only objective and
        # every proposed feature is rejected for costing lambda^2
        y = AdjacencyMatrix(5, np.zeros((5, 5)))
        empty = ObservationMask(5, np.zeros((5, 5), dtype=bool))
        report = fit(y, empty, FitConfig(seed=0, lam=0.5))
        assert report.converged
        assert len(report.objective_trace) == 1
        assert report.accepted_births == [False]
        state = report.final_state
        assert negative_log_likelihood(y, empty, state) == 0.0
        assert report.objective_trace[-1] == pytest.approx(state.k_plus * 0.25, abs=1e-12)

    def test_two_block_cliques_recovered(self):
        # two 10-cliques, no cross edges, fully observed: the fitted model
        # must separate within-block from cross-block pairs decisively
        n, block = 20, 10
        entries = np.zeros((n, n), dtype=np.int8)
        entries[:block, :block] = 1
        entries[block:, block:] = 1
        np.fill_diagonal(entries, 0)
        y = AdjacencyMatrix(n, entries)
        mask = ObservationMask.full(n)
        report = fit(y, mask, FitConfig(seed=1, rel_tol=1e-4))
        assert_monotone_trace(report)
        probs = np.array(
            [[float(1 / (1 + np.exp(-report.final_state.logits[i, j]))) for j in range(n)] for i in range(n)]
        )
        same_block = (np.arange(n)[:, None] < block) == (np.arange(n)[None, :] < block)
        off_diag = ~np.eye(n, dtype=bool)
        assert probs[same_block & off_diag].min() > 0.9
        assert probs[~same_block].max() < 0.1

    def test_monotone_trace_and_one_flip_optimality(self, rng):
        for trial in range(3):
            n = int(rng.integers(4, 7))
            y, mask, _ = random_instance(rng, n, 2)
            config = FitConfig(
                seed=trial, rel_tol=1e-4, max_outer_iters=150
            )
            report = fit(y, mask, config)
            assert_monotone_trace(report)
            assert report.converged
            deltas = exhaustive_flip_improvements(y, mask, report.final_state)
            assert deltas.min() >= -1e-8

    def test_deterministic_reports(self, rng):
        y, mask, _ = random_instance(rng, 8, 2)
        config = FitConfig(seed=5, rel_tol=1e-4, max_outer_iters=40)
        r1 = fit(y, mask, config)
        r2 = fit(y, mask, config)
        assert r1.objective_trace == r2.objective_trace
        assert r1.k_trace == r2.k_trace
        assert r1.accepted_births == r2.accepted_births
        assert np.array_equal(r1.final_state.z, r2.final_state.z)
        assert np.array_equal(r1.final_state.w, r2.final_state.w)

    def test_k_trace_steps_are_bounded(self, rng):
        y, mask, _ = random_instance(rng, 10, 2)
        report = fit(y, mask, FitConfig(seed=3, rel_tol=1e-4, max_outer_iters=30))
        for prev, curr in zip(report.k_trace, report.k_trace[1:]):
            assert curr <= prev + 1

    def test_on_iteration_callback(self, rng):
        y, mask, _ = random_instance(rng, 6, 2)
        seen = []
        fit(
            y,
            mask,
            FitConfig(seed=0, rel_tol=1e-4, max_outer_iters=10),
            on_iteration=lambda it, state, sec: seen.append((it, state.k_plus, sec)),
        )
        assert [row[0] for row in seen] == list(range(len(seen)))
        assert all(sec >= 0 for _, _, sec in seen)

    def test_on_iteration_seconds_exclude_callback_time(self, rng):
        y, mask, _ = random_instance(rng, 6, 2)
        seen = []

        def slow(_iteration, _state, seconds):
            seen.append(seconds)
            time.sleep(0.3)

        report = fit(y, mask, FitConfig(seed=0, rel_tol=1e-12, max_outer_iters=3),
                     on_iteration=slow)
        assert len(seen) == 3
        assert sum(report.elapsed) <= seen[-1] < 0.3

    def test_elapsed_covers_the_convergence_scan(self, monkeypatch):
        # fit copies a state only for the scan it runs before declaring
        # convergence, so a slow copy slows that scan alone
        y, mask, config = _planted_problem(0)
        copy = ModelState.copy

        def slow_copy(state):
            time.sleep(0.2)
            return copy(state)

        monkeypatch.setattr(ModelState, "copy", slow_copy)
        seen = []
        report = fit(y, mask, config, on_iteration=lambda _it, _state, s: seen.append(s))
        assert report.converged
        assert report.elapsed[-1] >= 0.2
        assert seen[-1] == sum(report.elapsed)

    def test_one_objective_per_iteration_and_birth(self, monkeypatch):
        # the W step's objective is carried across births and becomes the
        # iteration's trace entry, so each iteration evaluates it once plus
        # once per candidate (its birth and any retries); fit proposes through
        # the module-level name, so a wrapper installed there sees every birth
        y, mask, config = _ibp_problem(0)
        calls, proposals = [], []
        propose = optimizer.propose_feature

        def counted(*args):
            calls.append(args)
            return objective(*args)

        def counted_propose(*args):
            proposals.append(args)
            return propose(*args)

        monkeypatch.setattr(optimizer, "objective", counted)
        monkeypatch.setattr(optimizer, "propose_feature", counted_propose)
        report = fit(y, mask, config)
        iterations = len(report.objective_trace)
        assert len(calls) == 1 + iterations + len(proposals)
        assert len(proposals) == sum(report.births_proposed)
        assert len(report.births_proposed) == iterations == len(report.accepted_births)

    @pytest.mark.parametrize("seed, rel_tol", [(6, 0.3), (9, 1e-4)])
    def test_scored_states_have_no_empty_community(self, monkeypatch, seed, rel_tol):
        # only a sweep empties a column, and fit prunes the states of the
        # sweeps it keeps, candidates' too, before a W step or an objective
        # reads them: every state is charged lam^2 per non-empty community.
        # The start's objective scores the initial draw, which no sweep has
        # touched yet; these fits' draws fill every column anyway
        y, mask, config = _planted_problem(seed)
        filled, removed = {"objective": [], "optimize_w": []}, []
        for name, seen in filled.items():
            def wrapped(*args, inner=getattr(optimizer, name), seen=seen):
                seen.append(bool(args[2].z.any(axis=0).all()))
                return inner(*args)
            monkeypatch.setattr(optimizer, name, wrapped)
        prune = optimizer.prune_empty_features

        def counted_prune(state):
            k_plus = state.k_plus
            pruned = prune(state)
            removed.append(k_plus - pruned.k_plus)
            return pruned

        monkeypatch.setattr(optimizer, "prune_empty_features", counted_prune)
        fit(y, mask, replace(config, rel_tol=rel_tol))
        assert all(filled["objective"]) and all(filled["optimize_w"])
        assert any(removed)  # a sweep emptied a column

    def test_converged_fit_rejected_every_retry(self):
        # convergence needs the first birth and all BIRTH_RETRIES retries rejected
        y, mask, config = _planted_problem(0)
        report = fit(y, mask, config)
        assert report.converged
        assert report.births_proposed[-1] == 1 + optimizer.BIRTH_RETRIES
        assert not report.accepted_births[-1]
        assert all(1 <= count <= 1 + optimizer.BIRTH_RETRIES for count in report.births_proposed)

    def test_dimension_mismatch(self, rng):
        y, _, _ = random_instance(rng, 5, 2)
        with pytest.raises(ValueError):
            fit(y, ObservationMask.full(6), FitConfig())


@st.composite
def fit_problems(draw):
    """(y, mask, config) on n <= 10 nodes: random mask, diagonal all observed or none."""
    n = draw(st.integers(1, 10))
    entries = draw(arrays(bool, (n, n)))
    observed = draw(arrays(bool, (n, n)))
    np.fill_diagonal(observed, draw(st.booleans()))
    config = FitConfig(seed=draw(st.integers(0, 2**32 - 1)),
                       lam=draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])),
                       k_init=draw(st.integers(1, 3)),
                       rel_tol=1e-4, max_outer_iters=10)
    return AdjacencyMatrix(n, entries), ObservationMask(n, observed), config


class TestFitProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(fit_problems())
    def test_objective_trace_never_increases(self, problem):
        y, mask, config = problem
        start = objective(y, mask, init_state(y.n, config))
        report = fit(y, mask, config)
        assert report.objective_trace[0] <= start + 1e-9
        assert_monotone_trace(report, slack=1e-9)


def _planted_problem(seed):
    z = planted_blocks(30, 3)
    y = sample_edges(z, block_weights(3), seed)
    train, _ = split_observations(y, 0.8, seed)
    return y, train, FitConfig(seed=seed, lam=2.0, rel_tol=1e-4, max_outer_iters=15)


def _ibp_problem(seed):
    _, _, y = sample_lfrm(40, 1.0, 1.0, seed)
    train, _ = split_observations(y, 0.8, seed)
    return y, train, FitConfig(seed=seed, max_outer_iters=8)


class TestTrajectory:
    """Whole fits take the same path with a reference W step or sweep patched in."""

    @pytest.mark.parametrize("problem", [_planted_problem, _ibp_problem])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_path_as_entrywise_w_step(self, monkeypatch, problem, seed):
        y, mask, config = problem(seed)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "optimize_w", oracle_optimize_w)
            expected = fit(y, mask, config)
        got = fit(y, mask, config)
        assert got.k_trace == expected.k_trace
        assert len(got.objective_trace) == len(expected.objective_trace)
        assert got.accepted_births == expected.accepted_births
        np.testing.assert_allclose(got.objective_trace, expected.objective_trace, rtol=1e-9)

    @pytest.mark.parametrize("problem", [_planted_problem, _ibp_problem])
    def test_same_path_as_one_flip_at_a_time_sweep(self, monkeypatch, problem):
        _assert_same_path_as_oracle_sweep(monkeypatch, *problem(0))

    def test_convergence_check_that_finds_a_flip(self, monkeypatch):
        y, mask, config = _planted_problem(16)
        config = replace(config, rel_tol=0.3)
        report = _assert_same_path_as_oracle_sweep(monkeypatch, y, mask, config)
        # an iteration went on after rejecting every birth: its check swept a flip
        checks = _convergence_checks(report)[:-1]
        assert any(checks)
        # capped there, the fit returns the state its trace describes, not the swept copy
        capped = fit(y, mask, replace(config, max_outer_iters=checks.index(True) + 1))
        assert not capped.converged
        assert objective(y, mask, capped.final_state) == capped.objective_trace[-1]


def _convergence_checks(report) -> list[bool]:
    """Per iteration, whether fit swept a copy to check convergence: all its births were rejected."""
    return [proposed == 1 + optimizer.BIRTH_RETRIES and not accepted
            for proposed, accepted in zip(report.births_proposed, report.accepted_births)]


def _assert_same_path_as_oracle_sweep(monkeypatch, y, mask, config):
    """fit's path with oracle_pattern_sweep patched in is its own; returns that fit's report."""
    calls = []

    def sweep(_idx, state):
        calls.append(state)
        return oracle_pattern_sweep(y, mask, state)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_sweep", sweep)
        expected = fit(y, mask, config)
    # one sweep per birth, one per iteration (fit's) except an iteration after
    # an accepted birth, whose state is settled, and one per convergence check
    assert len(calls) == (len(expected.objective_trace) - sum(expected.accepted_births[:-1])
                          + sum(expected.births_proposed) + sum(_convergence_checks(expected)))
    got = fit(y, mask, config)
    assert got.objective_trace == expected.objective_trace
    assert got.k_trace == expected.k_trace
    assert got.accepted_births == expected.accepted_births
    assert got.converged == expected.converged
    assert np.array_equal(got.final_state.z, expected.final_state.z)
    return expected


class TestSkippedWork:
    """fit skips the sweep of a settled state and groups each Z into pattern pairs once."""

    @pytest.mark.parametrize("problem", [_planted_problem, _ibp_problem])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_state_after_an_accepted_birth_is_settled(self, problem, seed):
        # the sweep fit skips after an accepted birth would flip nothing
        y, mask, config = problem(seed)
        idx = optimizer._MaskIndex(y, mask)
        scans = []
        report = fit(y, mask, config, on_iteration=lambda _it, state, _s: scans.append(
            optimizer._sweep(idx, state.copy())))
        settled = [scan for scan, accepted in zip(scans, report.accepted_births) if accepted]
        assert settled
        assert not any(settled)

    @pytest.mark.parametrize("problem", [_planted_problem, _ibp_problem])
    def test_one_pattern_grouping_per_z(self, monkeypatch, problem):
        # the start's objective, each swept main state (its W step and its
        # objective share one), each candidate's W step and objective; an
        # accepted candidate's serves the next iteration
        y, mask, config = problem(0)
        groupings = []
        init = _PairStats.__init__

        def counted(stats, *args):
            groupings.append(stats)
            init(stats, *args)

        monkeypatch.setattr(_PairStats, "__init__", counted)
        report = fit(y, mask, config)
        swept = len(report.objective_trace) - sum(report.accepted_births[:-1])
        assert len(groupings) == 1 + swept + 2 * sum(report.births_proposed)
