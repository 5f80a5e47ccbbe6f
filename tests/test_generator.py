"""Buffet-process sampler and model-draw statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, poisson

from laftr import (
    block_weights,
    planted_blocks,
    sample_edges,
    sample_ibp,
    sample_lfrm,
    sigmoid,
)

from conftest import oracle_sample_edges, oracle_sample_ibp


def harmonic(n):
    return sum(1.0 / i for i in range(1, n + 1))


class TestSampleIbp:
    def test_alpha_zero_gives_no_features(self):
        for n in (1, 5, 30):
            assert sample_ibp(n, 0.0, seed=0).shape == (n, 0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            sample_ibp(5, -0.5, seed=0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be"):
            sample_ibp(5, alpha, seed=0)

    def test_deterministic(self):
        assert np.array_equal(sample_ibp(20, 1.5, seed=3), sample_ibp(20, 1.5, seed=3))

    def test_single_customer_poisson_mean(self):
        # with one customer the feature count is Poisson(alpha) outright
        rng = np.random.default_rng(0)
        draws = np.array([sample_ibp(1, 2.0, rng).shape[1] for _ in range(100_000)])
        assert draws.mean() == pytest.approx(2.0, abs=0.03)

    def test_feature_count_mean_matches_harmonic_sum(self):
        # new features per customer i are Poisson(alpha/i), so the total has
        # mean alpha * H_n
        rng = np.random.default_rng(1)
        draws = np.array([sample_ibp(50, 1.0, rng).shape[1] for _ in range(10_000)])
        assert draws.mean() == pytest.approx(harmonic(50), abs=0.1)

    def test_rows_only_use_existing_or_new_features(self):
        z = sample_ibp(40, 2.0, seed=7)
        assert np.isin(z, (0, 1)).all()
        assert (z.sum(axis=0) >= 1).all()  # every sampled dish was tasted

    def test_feature_count_poisson_chisquare(self):
        # goodness of fit of K against Poisson(alpha * H_20) at the 1% level
        n, alpha = 20, 1.0
        rng = np.random.default_rng(2)
        draws = np.array([sample_ibp(n, alpha, rng).shape[1] for _ in range(10_000)])
        mean = alpha * harmonic(n)
        hi = int(draws.max()) + 1
        observed = np.bincount(draws, minlength=hi + 1).astype(float)
        expected = poisson.pmf(np.arange(hi + 1), mean) * draws.size
        expected[hi] += draws.size * (1.0 - poisson.cdf(hi, mean))
        # merge sparse tail bins so every expected count is >= 5
        while expected[-1] < 5 and expected.size > 2:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        while expected[0] < 5 and expected.size > 2:
            expected[1] += expected[0]
            observed[1] += observed[0]
            expected, observed = expected[1:], observed[1:]
        result = chisquare(observed, expected * observed.sum() / expected.sum())
        assert result.pvalue > 0.01


class TestSampleEdges:
    def test_planted_blocks_density(self):
        z = planted_blocks(60, 2)
        w = block_weights(2)  # +6 within, -6 across
        y = sample_edges(z, w, seed=0)
        same = (z @ z.T) > 0
        off_diag = ~np.eye(60, dtype=bool)
        within = y.entries[same & off_diag].mean()
        across = y.entries[~same].mean()
        assert within > 0.95
        assert across < 0.05

    def test_diagonal_zero(self):
        z = planted_blocks(10, 2)
        y = sample_edges(z, block_weights(2), seed=1)
        assert np.diagonal(y.entries).sum() == 0

    def test_empirical_frequencies_converge(self, rng):
        # for fixed factors, edge frequencies over repeated draws approach
        # the sigmoid probabilities within 3 binomial standard errors
        z = (rng.random((8, 2)) < 0.5).astype(float)
        w = rng.normal(size=(2, 2))
        probs = sigmoid((z @ w) @ z.T)
        draws = 10_000
        counts = np.zeros((8, 8))
        stream = np.random.default_rng(123)
        for _ in range(draws):
            counts += sample_edges(z, w, stream).entries
        off_diag = ~np.eye(8, dtype=bool)
        freq = counts / draws
        limit = 3.0 * np.sqrt(probs * (1 - probs) / draws)
        assert (np.abs(freq - probs)[off_diag] <= limit[off_diag]).all()


class TestSampleLfrm:
    def test_alpha_zero_fair_coin_edges(self):
        z, w, y = sample_lfrm(100, 0.0, 1.0, seed=0)
        assert z.shape == (100, 0)
        off_diag = ~np.eye(100, dtype=bool)
        assert y.entries[off_diag].mean() == pytest.approx(0.5, abs=0.02)

    def test_deterministic(self):
        z1, w1, y1 = sample_lfrm(30, 1.0, 1.0, seed=9)
        z2, w2, y2 = sample_lfrm(30, 1.0, 1.0, seed=9)
        assert np.array_equal(z1, z2)
        assert np.array_equal(w1, w2)
        assert np.array_equal(y1.entries, y2.entries)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            sample_lfrm(10, 1.0, 0.0, seed=0)

    @pytest.mark.parametrize("sigma_w", [np.nan, np.inf])
    def test_rejects_non_finite_sigma(self, sigma_w):
        with pytest.raises(ValueError, match="sigma_w must be"):
            sample_lfrm(10, 1.0, sigma_w, seed=0)


class TestPlantedHelpers:
    def test_blocks_partition_nodes(self):
        z = planted_blocks(10, 3)
        assert z.shape == (10, 3)
        assert (z.sum(axis=1) == 1).all()
        assert z.sum() == 10

    def test_block_weights_layout(self):
        w = block_weights(3, on=2.0, off=-1.0)
        assert np.array_equal(np.diag(w), [2.0, 2.0, 2.0])
        assert w[0, 1] == -1.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            planted_blocks(5, 0)
        with pytest.raises(ValueError):
            planted_blocks(5, 6)


def _seed_and_rng(seed: int, as_generator: bool):
    """The seed argument (an int or a fresh Generator) and an independent Generator with its stream."""
    return (np.random.default_rng(seed) if as_generator else seed), np.random.default_rng(seed)


def _assert_same_graph(y, want):
    assert y.entries.dtype == np.int8
    assert y.entries.tobytes() == want.entries.tobytes()
    assert y.symmetric_hint is want.symmetric_hint


class TestDrawsMatchOracles:
    """The samplers give the oracles' bytes from the same stream and leave it in the same state."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), alpha=st.sampled_from([0.0, 0.3, 1.0, 3.0, 8.0]),
           sigma_w=st.floats(0.05, 8.0), seed=st.integers(0, 2**32 - 1), as_generator=st.booleans())
    def test_sample_lfrm(self, n, alpha, sigma_w, seed, as_generator):
        arg, want_rng = _seed_and_rng(seed, as_generator)
        z, w, y = sample_lfrm(n, alpha, sigma_w, arg)
        want_z = oracle_sample_ibp(n, alpha, want_rng)
        want_w = want_rng.normal(0.0, sigma_w, (want_z.shape[1],) * 2)
        want_y = oracle_sample_edges(want_z, want_w, want_rng)
        assert z.dtype == np.int8 and z.shape == want_z.shape
        assert z.tobytes() == want_z.tobytes()
        assert w.tobytes() == want_w.tobytes()
        _assert_same_graph(y, want_y)
        if as_generator:
            assert arg.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), alpha=st.sampled_from([0.0, 0.5, 2.0, 6.0, 40.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_sample_ibp(self, n, alpha, seed):
        rng, want_rng = _seed_and_rng(seed, True)
        z = sample_ibp(n, alpha, rng)
        want = oracle_sample_ibp(n, alpha, want_rng)
        assert z.dtype == np.int8 and z.shape == want.shape and z.flags.c_contiguous
        assert z.tobytes() == want.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), k=st.integers(0, 6), planted=st.booleans(),
           scale=st.sampled_from([0.5, 6.0, 60.0]), seed=st.integers(0, 2**32 - 1))
    @example(n=1, k=0, planted=False, scale=0.5, seed=0)
    @example(n=33, k=0, planted=False, scale=0.5, seed=1)
    @example(n=32, k=1, planted=True, scale=6.0, seed=2)
    @example(n=70, k=3, planted=True, scale=60.0, seed=3)
    def test_sample_edges(self, n, k, planted, scale, seed):
        # K = 0 gives every pair probability 0.5, and n straddles the 32-row
        # draw blocks; planted float blocks need 1 <= k <= n
        k = min(k, n)
        if planted and k:
            z, w = planted_blocks(n, k), block_weights(k, on=scale, off=-scale)
        else:
            z = (np.random.default_rng(seed).random((n, k)) < 0.4).astype(np.int8)
            w = scale * np.random.default_rng(seed + 1).normal(size=(k, k))
        rng, want_rng = _seed_and_rng(seed, True)
        y = sample_edges(z, w, rng)
        _assert_same_graph(y, oracle_sample_edges(z, w, want_rng))
        assert rng.bit_generator.state == want_rng.bit_generator.state
        if planted and k and scale == 60.0:
            # every probability saturates to 0 or 1, so the graph is symmetric
            assert y.symmetric_hint
