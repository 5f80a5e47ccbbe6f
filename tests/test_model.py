"""Mathematical core: probabilities, objective, gradient, divergence identities."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import laftr
from laftr import (
    AdjacencyMatrix,
    FitConfig,
    ModelState,
    ObservationMask,
    evaluate_split,
    link_probability,
    negative_log_likelihood,
    objective,
    predict_links,
    prune_empty_features,
    sigmoid,
    softplus,
    split_observations,
)
from laftr.model import LOGIT_CLAMP, _exp_neg_abs
from conftest import (
    bernoulli_bregman,
    max_logit_error,
    nll_gradient_w,
    oracle_link_probabilities,
    oracle_nll,
    random_instance,
    scaled_log_partition,
)


def make_state(z, w, lam=0.5):
    return ModelState.from_factors(np.asarray(z, float), np.asarray(w, float), lam)


def single_entry_instance(n, i, j, y_value, z, w, lam=0.5):
    entries = np.zeros((n, n), dtype=np.int8)
    entries[i, j] = y_value
    observed = np.zeros((n, n), dtype=bool)
    observed[i, j] = True
    return (
        AdjacencyMatrix(n, entries),
        ObservationMask(n, observed),
        make_state(z, w, lam),
    )


class TestLinkProbability:
    def test_empty_features_give_half(self):
        state = make_state(np.zeros((3, 2)), np.ones((2, 2)))
        assert link_probability(state, 0, 1) == 0.5

    def test_unit_vectors_pick_one_weight(self, rng):
        w = rng.normal(size=(2, 2))
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        state = make_state(z, w)
        expected = 1.0 / (1.0 + math.exp(-w[0, 1]))
        assert link_probability(state, 0, 1) == pytest.approx(expected, abs=1e-12)

    def test_all_ones_two_features(self):
        state = make_state(np.ones((2, 2)), np.ones((2, 2)))
        # logit is 1+1+1+1 = 4
        assert link_probability(state, 0, 1) == pytest.approx(0.982014, abs=1e-6)
        assert link_probability(state, 0, 1) == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), abs=1e-12)

    def test_index_out_of_range(self):
        state = make_state(np.zeros((3, 1)), np.zeros((1, 1)))
        with pytest.raises(IndexError):
            link_probability(state, 0, 3)
        with pytest.raises(IndexError):
            link_probability(state, -1, 0)

    def test_scalar_input_returns_float(self, rng):
        _, _, state = random_instance(rng, 4, 2)
        assert type(link_probability(state, 0, 1)) is float
        assert type(link_probability(state, np.int64(2), np.int64(3))) is float

    def test_index_arrays_match_scalar_calls(self, rng):
        _, _, state = random_instance(rng, 7, 3)
        i, j = np.nonzero(np.ones((7, 7), dtype=bool))
        probs = link_probability(state, i, j)
        assert probs.shape == i.shape
        assert probs.tolist() == oracle_link_probabilities(state, zip(i.tolist(), j.tolist()))

    @pytest.mark.parametrize("i, j, dtype", [
        (True, True, "bool"),
        (np.array([True, False]), np.array([1, 1]), "bool"),
        (np.array([1, 1]), np.array([1.0, 0.0]), "float64"),
        (1.0, 1, "float64"),
        ("1", 1, "<U1"),
    ])
    def test_non_integer_indices_are_a_type_error(self, i, j, dtype):
        # taken as masks, (True, True) would select [sigma(3), sigma(0)],
        # while the pair (1, 1) scores sigma(0)
        state = make_state([[1.0], [0.0]], [[3.0]])
        with pytest.raises(TypeError, match=rf"^pair indices must be integers, got dtype {dtype}$"):
            link_probability(state, i, j)
        assert link_probability(state, 1, 1) == 0.5

    def test_empty_index_arrays(self, rng):
        _, _, state = random_instance(rng, 4, 2)
        empty = np.array([], dtype=np.int64)
        assert link_probability(state, empty, empty).shape == (0,)

    @pytest.mark.parametrize("i, j", [
        ([0, -1], [1, 2]),
        ([0, 1], [2, -3]),
        ([0, 3], [1, 2]),
        ([0, 1], [7, 2]),
    ])
    def test_array_index_out_of_range(self, i, j):
        state = make_state(np.zeros((3, 1)), np.zeros((1, 1)))
        with pytest.raises(IndexError):
            link_probability(state, np.array(i), np.array(j))


class TestNegativeLogLikelihood:
    def test_single_entry_logit_zero(self):
        y, mask, state = single_entry_instance(
            2, 0, 1, y_value=1, z=np.zeros((2, 1)), w=np.zeros((1, 1))
        )
        assert negative_log_likelihood(y, mask, state) == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_entries_cost_almost_nothing(self):
        # one feature per node, w pushes the observed pair to logit +50
        z = np.eye(2)
        w = np.array([[0.0, 50.0], [0.0, 0.0]])
        y, mask, state = single_entry_instance(2, 0, 1, y_value=1, z=z, w=w)
        assert negative_log_likelihood(y, mask, state) < 1e-20

        w_neg = np.array([[0.0, -50.0], [0.0, 0.0]])
        y0, mask0, state0 = single_entry_instance(2, 0, 1, y_value=0, z=z, w=w_neg)
        assert negative_log_likelihood(y0, mask0, state0) < 1e-20

    def test_matches_bregman_sum(self, rng):
        y, mask, state = random_instance(rng, 4, 2)
        probs = sigmoid(state.logits)
        bregman_sum = bernoulli_bregman(y.entries.astype(float), probs)[mask.observed].sum()
        nll = negative_log_likelihood(y, mask, state)
        assert nll == pytest.approx(bregman_sum, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        y, mask, state = random_instance(rng, 4, 2)
        other = ObservationMask.full(5)
        with pytest.raises(ValueError):
            negative_log_likelihood(y, other, state)


class TestObjective:
    def test_penalty_only(self):
        y = AdjacencyMatrix(3, np.zeros((3, 3)))
        empty = ObservationMask(3, np.zeros((3, 3), dtype=bool))
        state = make_state(np.ones((3, 3)), np.zeros((3, 3)), lam=0.5)
        assert objective(y, empty, state) == pytest.approx(0.75, abs=1e-12)

    def test_zero_features_single_entry(self):
        y, mask, state = single_entry_instance(
            2, 0, 1, y_value=0, z=np.zeros((2, 0)), w=np.zeros((0, 0))
        )
        assert state.k_plus == 0
        assert objective(y, mask, state) == pytest.approx(math.log(2), abs=1e-12)

    def test_lambda_zero_reduces_to_nll(self, rng):
        y, mask, state = random_instance(rng, 5, 2)
        bare = ModelState.from_factors(state.z, state.w, lam=0.0)
        assert objective(y, mask, bare) == negative_log_likelihood(y, mask, bare)


class TestGradient:
    def test_zero_memberships_zero_gradient(self, rng):
        y, mask, _ = random_instance(rng, 4, 2)
        state = make_state(np.zeros((4, 2)), rng.normal(size=(2, 2)))
        assert np.array_equal(nll_gradient_w(y, mask, state), np.zeros((2, 2)))

    def test_perfect_fit_gradient_vanishes(self):
        z = np.eye(3)
        w = np.array([[0.0, 50.0, -50.0], [-50.0, 0.0, 50.0], [50.0, -50.0, 0.0]])
        state = make_state(z, w)
        probs = sigmoid(state.logits)
        entries = np.round(probs).astype(np.int8)
        np.fill_diagonal(entries, 0)
        y = AdjacencyMatrix(3, entries)
        mask = ObservationMask.full(3)
        grad = nll_gradient_w(y, mask, state)
        assert np.abs(grad).max() < 1e-10

    def test_matches_finite_differences(self, rng):
        y, mask, state = random_instance(rng, 5, 2)
        grad = nll_gradient_w(y, mask, state)
        step = 1e-5
        for a in range(2):
            for b in range(2):
                w_hi, w_lo = state.w.copy(), state.w.copy()
                w_hi[a, b] += step
                w_lo[a, b] -= step
                hi = oracle_nll(y, mask, ModelState.from_factors(state.z, w_hi, state.lam))
                lo = oracle_nll(y, mask, ModelState.from_factors(state.z, w_lo, state.lam))
                fd = (hi - lo) / (2 * step)
                assert grad[a, b] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestBernoulliBregman:
    def test_zero_at_the_mean(self):
        for q in (0.1, 0.5, 0.73):
            assert bernoulli_bregman(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_known_values(self):
        assert bernoulli_bregman(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-12)
        assert bernoulli_bregman(0.0, 0.9) == pytest.approx(math.log(10), abs=1e-12)

    def test_binary_case_equals_cross_entropy_exactly(self, rng):
        # same stable form on both sides: identical floats, not just close ones
        q = rng.uniform(0.01, 0.99, size=50)
        for x in (0.0, 1.0):
            direct = -x * np.log(q) - (1.0 - x) * np.log1p(-q)
            div = bernoulli_bregman(np.full_like(q, x), q)
            assert np.array_equal(direct, div)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            bernoulli_bregman(0.5, 0.0)
        with pytest.raises(ValueError):
            bernoulli_bregman(0.5, 1.0)
        with pytest.raises(ValueError):
            bernoulli_bregman(1.5, 0.5)

    def test_nonnegative(self, rng):
        x = rng.uniform(0, 1, 200)
        q = rng.uniform(0.01, 0.99, 200)
        assert (bernoulli_bregman(x, q) >= -1e-15).all()


class TestScaledLogPartition:
    def test_value_at_zero(self):
        for beta in (0.5, 1.0, 10.0):
            assert scaled_log_partition(0.0, beta) == pytest.approx(beta * math.log(2), abs=1e-12)

    def test_first_derivative_is_mean(self):
        # d psi~ / d eta~ = sigma(eta~/beta) = q, independent of beta
        step = 1e-6
        for eta, beta in ((0.3, 1.0), (-1.2, 2.0), (2.0, 7.5), (0.0, 0.25)):
            fd = (scaled_log_partition(eta + step, beta) - scaled_log_partition(eta - step, beta)) / (2 * step)
            q = float(sigmoid(eta / beta))
            assert fd == pytest.approx(q, rel=1e-5)

    def test_second_derivative_is_shrunk_variance(self):
        # d^2 psi~ / d eta~^2 = q(1-q)/beta; step balances truncation vs rounding
        step = 1e-4
        for eta, beta in ((0.3, 1.0), (-1.2, 2.0), (2.0, 7.5), (0.7, 0.5)):
            fd2 = (
                scaled_log_partition(eta + step, beta)
                - 2 * scaled_log_partition(eta, beta)
                + scaled_log_partition(eta - step, beta)
            ) / step**2
            q = float(sigmoid(eta / beta))
            assert fd2 == pytest.approx(q * (1 - q) / beta, rel=1e-4)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            scaled_log_partition(0.0, 0.0)
        with pytest.raises(ValueError):
            scaled_log_partition(0.0, -1.0)


class TestNumericalHelpers:
    def test_sigmoid_complement(self):
        x = np.linspace(-40, 40, 2001)
        assert np.abs(sigmoid(x) + sigmoid(-x) - 1.0).max() < 1e-12

    def test_sigmoid_extremes_stay_finite(self):
        # the exp clamp floors probabilities near 1e-217 instead of exactly 0
        assert sigmoid(1e6) == 1.0
        assert 0.0 <= sigmoid(-1e6) < 1e-200

    def test_softplus_linear_tail(self):
        # for large positive a, softplus(a) must equal a so -y a + softplus(a) -> 0
        assert softplus(1000.0) == 1000.0
        assert 0.0 <= softplus(-1000.0) < 1e-200
        assert softplus(0.0) == pytest.approx(math.log(2), abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.integers(1, 20), elements=st.floats(allow_nan=True)))
    @example(np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, LOGIT_CLAMP, -LOGIT_CLAMP,
                       LOGIT_CLAMP + 1, -(LOGIT_CLAMP + 1), 1e308, -1e308, np.nan]))
    def test_shared_exp_gives_sigmoid_and_softplus_bits(self, x):
        # references with their own exp: sigmoid by two divisions, and softplus
        e_ref = np.exp(np.maximum(-np.abs(x), -LOGIT_CLAMP))
        sigmoid_ref = np.where(x >= 0, 1.0 / (1.0 + e_ref), e_ref / (1.0 + e_ref))
        softplus_ref = np.maximum(x, 0.0) + np.log1p(e_ref)
        e = _exp_neg_abs(x)
        # the W step's sigmoid of a logit table, from its shared exp
        w_step_sigmoid = np.where(x >= 0, 1.0, e) / (1.0 + e)
        for got, want in ((e, e_ref), (sigmoid(x), sigmoid_ref), (w_step_sigmoid, sigmoid_ref),
                          (softplus(x), softplus_ref)):
            assert got.tobytes() == want.tobytes()


class TestStateInvariants:
    def test_transpose_symmetry(self, rng):
        z = (rng.random((6, 3)) < 0.5).astype(float)
        w = rng.normal(size=(3, 3))
        forward = ModelState.from_factors(z, w, 0.5)
        backward = ModelState.from_factors(z, w.T, 0.5)
        for i in range(6):
            for j in range(6):
                assert link_probability(forward, i, j) == pytest.approx(
                    link_probability(backward, j, i), abs=1e-12
                )

    def test_convexity_in_w(self, rng):
        y, mask, state = random_instance(rng, 6, 3)
        w1 = rng.normal(size=(3, 3))
        w2 = rng.normal(size=(3, 3))
        q1 = objective(y, mask, ModelState.from_factors(state.z, w1, 0.5))
        q2 = objective(y, mask, ModelState.from_factors(state.z, w2, 0.5))
        for t in (0.25, 0.5, 0.75):
            mid = ModelState.from_factors(state.z, t * w1 + (1 - t) * w2, 0.5)
            assert objective(y, mask, mid) <= t * q1 + (1 - t) * q2 + 1e-9

    def test_cache_coherence_on_construction(self, rng):
        _, _, state = random_instance(rng, 8, 3)
        assert max_logit_error(state) < 1e-9

    def test_rejects_mismatched_w(self):
        with pytest.raises(ValueError):
            ModelState.from_factors(np.zeros((3, 2)), np.zeros((3, 3)), 0.5)

    def test_rejects_non_binary_z(self):
        with pytest.raises(ValueError):
            ModelState.from_factors(np.full((2, 1), 0.5), np.zeros((1, 1)), 0.5)

    @pytest.mark.parametrize("w, lam", [
        (np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5), (1.0, np.nan), (1.0, -1.0),
    ])
    def test_rejects_non_finite_w_and_bad_lambda(self, w, lam):
        with pytest.raises(ValueError):
            ModelState.from_factors(np.ones((2, 1)), np.full((1, 1), w), lam)

    def test_infinite_lambda_is_legal(self):
        state = ModelState.from_factors(np.ones((2, 1)), np.ones((1, 1)), np.inf)
        assert state.lam == np.inf


@st.composite
def repeated_row_states(draw):
    """States whose Z repeats a few membership rows, K from 0 to 5, W in +-400."""
    k = draw(st.integers(0, 5))
    patterns = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                             min_size=1, max_size=4))
    rows = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=1, max_size=12))
    w = draw(arrays(float, (k, k), elements=st.floats(-400.0, 400.0)))
    z = np.array(patterns, dtype=float).reshape(len(patterns), k)[rows]
    return ModelState.from_factors(z, w, 0.5)


def assert_equal_rows_tie(state):
    """Nodes with equal membership rows have bitwise-equal logits and scores."""
    _, first, inv = np.unique(state.z, axis=0, return_index=True, return_inverse=True)
    i, j = np.nonzero(np.ones((state.n, state.n), dtype=bool))
    probs = link_probability(state, i, j).reshape(state.n, state.n)
    for square in (state.logits, probs):
        assert square.tobytes() == square[np.ix_(first, first)][np.ix_(inv, inv)].tobytes()


def _wide_state_with_inert_column():
    """A K = 12 state whose feature 5 is unused.

    Wide enough that a sum not taken in feature order (an unrolled or
    pairwise one) changes bits when the column is dropped.
    """
    rng = np.random.default_rng(3)
    z = (rng.random((10, 12)) < 0.7).astype(float)
    z[:, 5] = 0.0
    return ModelState.from_factors(z, rng.uniform(-400.0, 400.0, (12, 12)), 0.5)


# A seeded N=230, K=10 state; prints the sha256 of its stored logits.
_LOGITS_DIGEST = """
import hashlib
import numpy as np
from laftr import ModelState
rng = np.random.default_rng(230)
z = (rng.random((230, 10)) < 0.3).astype(float)
w = rng.normal(0.0, 2.0, (10, 10))
print(hashlib.sha256(ModelState.from_factors(z, w, 0.5).logits.tobytes()).hexdigest())
"""


class TestOneLogitPath:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(repeated_row_states())
    @example(_wide_state_with_inert_column())
    def test_equal_rows_tie_exactly_before_and_after_pruning(self, state):
        assert_equal_rows_tie(state)
        logits = state.logits.copy()
        prune_empty_features(state)
        assert_equal_rows_tie(state)
        assert state.logits.tobytes() == logits.tobytes()

    def test_logits_are_read_only_and_scoring_never_builds_them(self, monkeypatch):
        # logits are built afresh on each read: a write would change only a
        # temporary copy, so it raises; scoring reads the pattern table
        y, _, state = random_instance(np.random.default_rng(4), 8, 3)
        with pytest.raises(ValueError):
            state.logits[0, 1] += 1.0
        i, j = np.nonzero(np.ones((8, 8), dtype=bool))
        expected = sigmoid(state.logits)[i, j]
        train, test = split_observations(y, 0.7, 0)
        config = FitConfig(seed=0, max_outer_iters=3)
        auc = evaluate_split(y, train, test, config)[0]

        def no_logits(_state):
            raise AssertionError("scoring built the N x N logits")

        monkeypatch.setattr(ModelState, "logits", property(no_logits))
        assert link_probability(state, i, j).tobytes() == expected.tobytes()
        assert predict_links(state, np.stack([i, j], axis=1)).tobytes() == expected.tobytes()
        assert evaluate_split(y, train, test, config)[0] == auc

    def test_logits_do_not_depend_on_the_blas_thread_count(self):
        src = str(Path(laftr.__file__).resolve().parent.parent)
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", _LOGITS_DIGEST], env=env,
                                 capture_output=True, text=True, check=True, timeout=120)
            digests.add(run.stdout)
        assert len(digests) == 1
