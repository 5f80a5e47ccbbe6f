"""Greedy optimizer: flip deltas, sweeps, W descent, births, pruning, full fits."""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize_scalar

from laftr import (
    AdjacencyMatrix,
    FitConfig,
    ModelState,
    ObservationMask,
    block_weights,
    delta_objective_flip,
    fit,
    init_state,
    negative_log_likelihood,
    nll_gradient_w,
    objective,
    optimize_w,
    planted_blocks,
    propose_feature,
    prune_empty_features,
    sample_edges,
    sample_lfrm,
    split_observations,
    sweep_z,
)
from laftr import optimizer
from laftr.optimizer import _PairStats
from conftest import (
    assert_monotone_trace,
    exhaustive_flip_improvements,
    oracle_flip_delta,
    oracle_optimize_w,
    oracle_sweep_pass,
    random_instance,
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
            {"w_max_steps": 0},
            {"w_grad_tol": 0.0},
            {"births_per_iter": -1},
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
        from laftr.optimizer import _apply_flip

        y, mask, state = random_instance(rng, 6, 2)
        for n, k in ((0, 0), (3, 1), (5, 0)):
            d1 = delta_objective_flip(y, mask, state, n, k)
            _apply_flip(state, n, k)
            d2 = delta_objective_flip(y, mask, state, n, k)
            _apply_flip(state, n, k)
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

    def test_index_validation(self, rng):
        y, mask, state = random_instance(rng, 4, 2)
        with pytest.raises(IndexError):
            delta_objective_flip(y, mask, state, 4, 0)
        with pytest.raises(IndexError):
            delta_objective_flip(y, mask, state, 0, 2)


class TestSweep:
    def test_fixed_point_reports_no_improvement(self, rng):
        y, mask, state = random_instance(rng, 5, 2)
        while sweep_z(y, mask, state)[1]:
            pass
        z_before = state.z.copy()
        _, improved = sweep_z(y, mask, state)
        assert improved is False
        assert np.array_equal(state.z, z_before)

    def test_fixed_point_passes_exhaustive_oracle(self, rng):
        y, mask, state = random_instance(rng, 4, 2)
        while sweep_z(y, mask, state)[1]:
            pass
        deltas = exhaustive_flip_improvements(y, mask, state)
        assert deltas.min() >= -1e-8

    def test_never_increases_objective(self, rng):
        y, mask, state = random_instance(rng, 7, 3)
        before = objective(y, mask, state)
        state, _ = sweep_z(y, mask, state)
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
        while sweep_z(y, mask, state)[1]:
            trace.append(objective(y, mask, state))
        assert (np.diff(trace) <= 1e-9).all()
        rows_with_ones = np.flatnonzero(state.z.sum(axis=1) > 0)
        assert len(rows_with_ones) <= 1

    def test_updates_keep_caches_coherent(self, rng):
        y, mask, state = random_instance(rng, 8, 3)
        while sweep_z(y, mask, state)[1]:
            pass
        assert state.max_cache_error() < 1e-9


@st.composite
def sweep_instances(draw):
    """(y, mask, state) with a random mask, the diagonal all observed or none.

    W entries reach +-8, so logits saturate; near 0 (where hypothesis
    shrinks to) flip deltas tie at exactly 0. K ranges down to 0.
    """
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 5))
    z = draw(arrays(bool, (n, k)))
    w = draw(arrays(float, (k, k), elements=st.floats(-8.0, 8.0)))
    entries = draw(arrays(bool, (n, n)))
    observed = draw(arrays(bool, (n, n)))
    np.fill_diagonal(observed, draw(st.booleans()))
    return (AdjacencyMatrix(n, entries), ObservationMask(n, observed),
            ModelState.from_factors(z, w, 0.5))


class TestSweepKernel:
    """The batched K x M kernel against the one-flip-at-a-time oracle."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_apply_pass_takes_the_oracle_flips(self, problem):
        y, mask, state = problem
        expected = state.copy()
        expected_flag = oracle_sweep_pass(y, mask, expected, apply=True)
        flag = optimizer._sweep_pass(optimizer._MaskIndex(y, mask), state, apply=True)
        assert flag == expected_flag
        assert np.array_equal(state.z, expected.z)
        assert state.max_cache_error() < 1e-9

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
    def test_scan_matches_oracle_without_mutating(self, problem):
        y, mask, state = problem
        before = state.copy()
        expected = oracle_sweep_pass(y, mask, state.copy(), apply=False)
        assert optimizer._sweep_pass(optimizer._MaskIndex(y, mask), state, apply=False) == expected
        for name in ("z", "w", "logits", "left_cache", "right_cache"):
            assert np.array_equal(getattr(state, name), getattr(before, name)), name

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_instances())
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
        optimize_w(y, mask, state, FitConfig())
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
        optimize_w(y, mask, state, FitConfig())

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
            optimize_w(y, mask, state, FitConfig(w_max_steps=40))
            assert objective(y, mask, state) <= before + 1e-9

    def test_rebuilds_caches(self, rng):
        y, mask, state = random_instance(rng, 6, 2)
        optimize_w(y, mask, state, FitConfig(w_max_steps=20))
        assert state.max_cache_error() < 1e-9


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
        nll = negative_log_likelihood(y, mask, state)
        assert abs(stats.loss(a) - nll) <= 1e-9 * loss_scale
        np.testing.assert_allclose(stats.gradient(a), nll_gradient_w(y, mask, state),
                                   rtol=0, atol=1e-9 * max(1, mask.count))
        assert stats.count.sum() == mask.count
        assert stats.positives.sum() == y.entries[mask.observed].sum()
        assert len(stats.patterns) == len(np.unique(state.z, axis=0))

    @pytest.mark.parametrize("seed", range(6))
    def test_optimize_w_matches_entrywise_descent(self, seed):
        rng = np.random.default_rng(seed)
        y, mask, state = random_instance(rng, 9, 3)
        state.z[5:] = state.z[0]  # repeated membership rows
        if seed % 2:
            observed = rng.random((9, 9)) < 0.7  # diagonal entries included
            mask = ObservationMask(9, observed)
        state.rebuild_caches()
        config = FitConfig(w_max_steps=25)
        expected = oracle_optimize_w(y, mask, state.copy(), config)
        got = optimize_w(y, mask, state.copy(), config)
        np.testing.assert_allclose(got.w, expected.w, rtol=0, atol=1e-8)


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
        # the candidate is not pruned, so its objective carries one extra
        # lambda^2 term relative to a same-NLL state with k columns
        y, mask, state = random_instance(rng, 5, 2)
        candidate = propose_feature(y, mask, state, FitConfig(), np.random.default_rng(2))
        q = objective(y, mask, candidate)
        nll = negative_log_likelihood(y, mask, candidate)
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
        state.rebuild_caches()
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
        assert state.max_cache_error() < 1e-9

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
        report = fit(y, mask, FitConfig(seed=1, rel_tol=1e-4, w_max_steps=100))
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
                seed=trial, rel_tol=1e-4, w_max_steps=40, max_outer_iters=150
            )
            report = fit(y, mask, config)
            assert_monotone_trace(report)
            assert report.converged
            deltas = exhaustive_flip_improvements(y, mask, report.final_state)
            assert deltas.min() >= -1e-8

    def test_deterministic_reports(self, rng):
        y, mask, _ = random_instance(rng, 8, 2)
        config = FitConfig(seed=5, rel_tol=1e-4, w_max_steps=30, max_outer_iters=40)
        r1 = fit(y, mask, config)
        r2 = fit(y, mask, config)
        assert r1.objective_trace == r2.objective_trace
        assert r1.k_trace == r2.k_trace
        assert r1.accepted_births == r2.accepted_births
        assert np.array_equal(r1.final_state.z, r2.final_state.z)
        assert np.array_equal(r1.final_state.w, r2.final_state.w)

    def test_k_trace_steps_are_bounded(self, rng):
        y, mask, _ = random_instance(rng, 10, 2)
        report = fit(y, mask, FitConfig(seed=3, rel_tol=1e-4, w_max_steps=30, max_outer_iters=30))
        for prev, curr in zip(report.k_trace, report.k_trace[1:]):
            assert curr <= prev + 1

    def test_on_iteration_callback(self, rng):
        y, mask, _ = random_instance(rng, 6, 2)
        seen = []
        fit(
            y,
            mask,
            FitConfig(seed=0, rel_tol=1e-4, w_max_steps=20, max_outer_iters=10),
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

    def test_one_objective_per_iteration_and_birth(self, monkeypatch):
        # the post-prune objective is carried across births and becomes the
        # iteration's trace entry, so each iteration evaluates it once plus
        # once per proposed candidate
        y, mask, config = _ibp_problem(0)
        calls = []

        def counted(*args):
            calls.append(args)
            return objective(*args)

        monkeypatch.setattr(optimizer, "objective", counted)
        report = fit(y, mask, config)
        assert len(calls) == 1 + 2 * len(report.objective_trace)

    def test_dimension_mismatch(self, rng):
        y, _, _ = random_instance(rng, 5, 2)
        with pytest.raises(ValueError):
            fit(y, ObservationMask.full(6), FitConfig())


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
        y, mask, config = problem(0)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_sweep_pass",
                          lambda _idx, state, apply: oracle_sweep_pass(y, mask, state, apply))
            expected = fit(y, mask, config)
        got = fit(y, mask, config)
        assert got.objective_trace == expected.objective_trace
        assert got.k_trace == expected.k_trace
        assert got.accepted_births == expected.accepted_births
        assert np.array_equal(got.final_state.z, expected.final_state.z)
