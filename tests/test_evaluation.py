"""AUC scoring, the split protocol, and lambda cross-validation."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laftr
from laftr import (
    AdjacencyMatrix,
    FitConfig,
    ModelState,
    ObservationMask,
    UndefinedMetricError,
    auc_from_scores,
    block_weights,
    cross_validate_lambda,
    evaluate_split,
    link_probability,
    planted_blocks,
    predict_links,
    run_splits,
    sample_edges,
    split_observations,
)
from laftr import evaluation
from conftest import (oracle_auc, oracle_cv_folds, oracle_link_probabilities, oracle_rank_auc,
                      random_instance)


def planted_graph(n=30, blocks=2, seed=0):
    z = planted_blocks(n, blocks)
    return sample_edges(z, block_weights(blocks), seed=seed)


class TestPredictLinks:
    def test_zero_feature_model_predicts_half(self):
        state = ModelState.from_factors(np.zeros((4, 0)), np.zeros((0, 0)), 0.5)
        np.testing.assert_array_equal(predict_links(state, [(0, 1), (2, 3)]), [0.5, 0.5],
                                      strict=True)

    def test_empty_pairs(self, rng):
        _, _, state = random_instance(rng, 4, 2)
        np.testing.assert_array_equal(predict_links(state, []), np.zeros(0), strict=True)

    def test_matches_link_probability(self, rng):
        _, _, state = random_instance(rng, 5, 2)
        np.testing.assert_array_equal(predict_links(state, [(1, 3)]),
                                      [link_probability(state, 1, 3)], strict=True)

    def test_many_pairs_match_oracle_in_input_order(self, rng):
        _, _, state = random_instance(rng, 9, 3)
        pairs = [tuple(p) for p in rng.integers(0, 9, size=(50, 2)).tolist()]
        probs = predict_links(state, pairs)
        np.testing.assert_array_equal(probs, oracle_link_probabilities(state, pairs), strict=True)

    def test_bad_index(self, rng):
        _, _, state = random_instance(rng, 4, 2)
        with pytest.raises(IndexError):
            predict_links(state, [(0, 9)])

    @pytest.mark.parametrize("pairs", [[(1, 2, 3), (0, 1, 2)], [(0,), (1,)], (0, 1), [[(0, 1)]]])
    def test_pairs_not_shaped_m_by_2(self, rng, pairs):
        _, _, state = random_instance(rng, 4, 2)
        with pytest.raises(ValueError, match=r"\(M, 2\)"):
            predict_links(state, pairs)

    def test_boolean_pairs_are_a_type_error(self):
        # as masks, these two rows would score the pairs (0, 0) and (1, 1)
        # of a 2-node state without an error
        state = ModelState.from_factors(np.array([[1.0], [0.0]]), np.array([[3.0]]), 0.5)
        with pytest.raises(TypeError, match="got dtype bool"):
            predict_links(state, np.array([[True, False], [False, True]]))

    def test_negative_index_is_not_wrapped(self, rng):
        _, _, state = random_instance(rng, 4, 2)
        with pytest.raises(IndexError):
            predict_links(state, [(1, 2), (-1, 0)])


@st.composite
def tied_scores_and_labels(draw):
    """Scores rounded to 1-2 decimals, with +-inf and -0.0 mixed in; labels of both classes."""
    size = draw(st.integers(2, 500))
    decimals = draw(st.sampled_from([1, 2]))
    rounded = st.floats(-1.0, 1.0).map(lambda x: round(x, decimals))
    special = st.sampled_from([np.inf, -np.inf, 0.0, -0.0])
    scores = draw(st.lists(st.one_of(rounded, special), min_size=size, max_size=size))
    labels = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    if min(labels) == max(labels):
        labels[0] = 1 - labels[0]
    return np.array(scores), np.array(labels)


class TestAucRoc:
    def test_perfect_ranking(self):
        assert auc_from_scores([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc_from_scores([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_three_of_four_concordant(self):
        assert auc_from_scores([0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0]) == 0.75

    def test_single_class_is_an_error(self):
        with pytest.raises(UndefinedMetricError):
            auc_from_scores(np.array([0.2, 0.4]), np.array([1, 1]))
        with pytest.raises(UndefinedMetricError):
            auc_from_scores(np.array([0.2, 0.4]), np.array([0, 0]))

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(5):
            size = int(rng.integers(10, 200))
            scores = np.round(rng.random(size), 2)  # rounding forces ties
            labels = (rng.random(size) < 0.4).astype(int)
            if labels.min() == labels.max():
                continue
            assert auc_from_scores(scores, labels) == pytest.approx(
                oracle_auc(scores, labels), abs=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(tied_scores_and_labels())
    def test_bits_match_the_rank_formula(self, case):
        scores, labels = case
        assert auc_from_scores(scores, labels) == oracle_rank_auc(scores, labels)

    def test_nan_score_gives_nan(self):
        scores, labels = [0.1, np.nan, 0.3, 0.2], [0, 1, 1, 0]
        assert np.isnan(auc_from_scores(scores, labels))
        assert np.isnan(oracle_rank_auc(scores, labels))

    def test_label_other_than_0_or_1_is_an_error(self):
        with pytest.raises(ValueError, match="0 or 1"):
            auc_from_scores([0.1, 0.2, 0.3], [0, 2, 1])

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="1-D of equal length"):
            auc_from_scores([0.1, 0.2, 0.3], [0, 1])

    def test_invariant_under_monotone_transforms(self, rng):
        scores = rng.uniform(0.01, 0.99, 80)
        labels = (rng.random(80) < 0.5).astype(int)
        base = auc_from_scores(scores, labels)
        assert auc_from_scores(scores**3, labels) == pytest.approx(base, abs=1e-12)
        assert auc_from_scores(np.log(scores / (1 - scores)), labels) == pytest.approx(
            base, abs=1e-12
        )

    def test_label_complement(self, rng):
        scores = np.round(rng.random(60), 1)
        labels = (rng.random(60) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        total = auc_from_scores(scores, labels) + auc_from_scores(scores, 1 - labels)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestEvaluateSplit:
    def test_planted_structure_scores_high(self):
        y = planted_graph(n=30, seed=0)
        train, test = split_observations(y, 0.8, seed=0, tie_symmetric=False)
        config = FitConfig(seed=0, lam=1.0, rel_tol=1e-4)
        auc, report = evaluate_split(y, train, test, config)
        assert auc > 0.95
        assert report.final_state.k_plus >= 2

    def test_zero_feature_model_scores_exactly_half(self):
        # when the penalty wins completely the model is empty, every score is
        # 0.5, and the tie-handling returns exactly 0.5
        state = ModelState.from_factors(np.zeros((6, 0)), np.zeros((0, 0)), 1000.0)
        scores = predict_links(state, [(0, 1), (1, 2), (2, 3), (3, 4)])
        labels = np.array([1, 0, 0, 1])
        assert (scores == 0.5).all()
        assert auc_from_scores(scores, labels) == 0.5

    def test_single_class_held_out_labels_fail_before_fitting(self, monkeypatch):
        y = planted_graph(n=12, seed=3)
        held_out = np.zeros((12, 12), dtype=bool)
        non_links = np.argwhere((y.entries == 0) & ~np.eye(12, dtype=bool))[:3]
        held_out[non_links[:, 0], non_links[:, 1]] = True
        train = ObservationMask(12, ~np.eye(12, dtype=bool) & ~held_out)
        monkeypatch.setattr(evaluation, "fit", lambda *args: pytest.fail("fit was called"))
        with pytest.raises(UndefinedMetricError, match="got 0 positives and 3 negatives"):
            evaluate_split(y, train, ObservationMask(12, held_out), FitConfig())

    def test_huge_penalty_blocks_all_growth(self):
        y = planted_graph(n=20, seed=1)
        train, test = split_observations(y, 0.8, seed=1, tie_symmetric=False)
        config = FitConfig(seed=1, lam=1000.0, rel_tol=1e-4, max_outer_iters=30)
        auc, report = evaluate_split(y, train, test, config)
        assert not any(report.accepted_births)
        assert report.final_state.k_plus <= config.k_init

    def test_deterministic(self):
        y = planted_graph(n=16, seed=2)
        train, test = split_observations(y, 0.8, seed=2, tie_symmetric=False)
        config = FitConfig(seed=2, rel_tol=1e-4, max_outer_iters=20)
        auc1, _ = evaluate_split(y, train, test, config)
        auc2, _ = evaluate_split(y, train, test, config)
        assert auc1 == auc2

    def test_rejects_overlapping_masks(self):
        y = planted_graph(n=10, seed=3)
        mask = ObservationMask.full(10)
        with pytest.raises(ValueError, match="overlap"):
            evaluate_split(y, mask, mask, FitConfig())

    def test_fitting_never_reads_heldout_entries(self):
        # flipping y on test entries must not change anything about the fit
        y = planted_graph(n=14, seed=4)
        train, test = split_observations(y, 0.8, seed=4, tie_symmetric=False)
        config = FitConfig(seed=4, rel_tol=1e-4, max_outer_iters=15)

        tampered_entries = y.entries.copy()
        tampered_entries[test.observed] = 1 - tampered_entries[test.observed]
        tampered = AdjacencyMatrix(14, tampered_entries)

        from laftr import fit

        r1 = fit(y, train, config)
        r2 = fit(tampered, train, config)
        assert r1.objective_trace == r2.objective_trace
        assert np.array_equal(r1.final_state.z, r2.final_state.z)
        assert np.array_equal(r1.final_state.w, r2.final_state.w)


class TestCrossValidateLambda:
    def test_single_value_grid(self):
        y = planted_graph(n=14, seed=5)
        train, _ = split_observations(y, 0.8, seed=5, tie_symmetric=False)
        config = FitConfig(seed=5, rel_tol=1e-3, max_outer_iters=10)
        best, table = cross_validate_lambda(y, train, [0.7], folds=2, seed=5, config=config)
        assert best == 0.7
        assert len(table) == 1

    def test_prefers_working_penalty_over_huge_one(self):
        y = planted_graph(n=24, seed=6)
        train, _ = split_observations(y, 0.8, seed=6, tie_symmetric=False)
        config = FitConfig(seed=6, rel_tol=1e-3, max_outer_iters=15)
        best, table = cross_validate_lambda(
            y, train, [0.5, 1000.0], folds=2, seed=6, config=config
        )
        assert best == 0.5
        by_lambda = dict(table)
        assert by_lambda[0.5] > by_lambda[1000.0]

    def test_deterministic_table(self):
        y = planted_graph(n=14, seed=7)
        train, _ = split_observations(y, 0.8, seed=7, tie_symmetric=False)
        config = FitConfig(seed=7, rel_tol=1e-3, max_outer_iters=8)
        out1 = cross_validate_lambda(y, train, [0.4, 0.8], folds=2, seed=7, config=config)
        out2 = cross_validate_lambda(y, train, [0.4, 0.8], folds=2, seed=7, config=config)
        assert out1 == out2

    def test_tie_goes_to_smaller_lambda(self, monkeypatch):
        import laftr.evaluation as evaluation

        y = planted_graph(n=10, seed=8)
        train, _ = split_observations(y, 0.8, seed=8, tie_symmetric=False)
        monkeypatch.setattr(
            evaluation, "evaluate_split", lambda *args, **kwargs: (0.5, None)
        )
        best, _ = evaluation.cross_validate_lambda(
            y, train, [0.9, 0.2, 0.4], folds=2, seed=8, config=FitConfig()
        )
        assert best == 0.2

    def test_single_class_fold_skipped_with_warning(self):
        # 1 edge among 4 nodes: one of the two folds sees only zeros
        entries = np.zeros((4, 4), dtype=np.int8)
        entries[0, 1] = 1
        y = AdjacencyMatrix(4, entries)
        train = ObservationMask.full(4)
        config = FitConfig(seed=0, rel_tol=1e-3, max_outer_iters=5)
        with pytest.warns(UserWarning, match="single-class"):
            best, table = cross_validate_lambda(y, train, [0.5], folds=2, seed=1, config=config)
        assert best == 0.5

    def test_all_folds_single_class_is_an_error(self):
        y = AdjacencyMatrix(4, np.zeros((4, 4), dtype=np.int8))
        train = ObservationMask.full(4)
        with pytest.warns(UserWarning):
            with pytest.raises(UndefinedMetricError):
                cross_validate_lambda(y, train, [0.5], folds=2, seed=0, config=FitConfig())

    def test_symmetric_mask_never_trains_on_a_validation_mirror(self, monkeypatch):
        import laftr.evaluation as evaluation

        y = planted_graph(n=40, seed=3)
        train, _ = split_observations(y, 0.8, seed=3, tie_symmetric=True)
        folds = []

        def record(_y, tr, val, _config):
            folds.append((tr.observed, val.observed))
            return 0.5, None

        monkeypatch.setattr(evaluation, "evaluate_split", record)
        evaluation.cross_validate_lambda(y, train, [0.5], folds=5, seed=0, config=FitConfig())
        assert len(folds) == 5
        for tr, val in folds:
            assert not (val & tr.T).any()
            assert np.array_equal(tr | val, train.observed)
        assert sum(val.sum() for _, val in folds) == train.count

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 25), density=st.sampled_from([0.2, 0.6, 1.0]),
           symmetric=st.booleans(), folds=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_folds_are_the_oracle_folds_bit_for_bit(self, n, density, symmetric, folds, seed):
        rng = np.random.default_rng(seed)
        y = AdjacencyMatrix(n, rng.random((n, n)) < 0.4)
        observed = rng.random((n, n)) < density  # the diagonal too
        train = ObservationMask(n, observed | observed.T if symmetric else observed)
        handed = []

        def record(_y, tr, val, _config):
            handed.append((tr.observed, val.observed))
            return 0.5, None

        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            patch.setattr(evaluation, "evaluate_split", record)
            warnings.simplefilter("ignore")  # single-class folds are skipped with a warning
            try:
                evaluation.cross_validate_lambda(y, train, [0.5], folds, seed, FitConfig())
            except UndefinedMetricError:
                pass
        want = [(tr, val) for tr, val in oracle_cv_folds(y, train, folds, seed)
                if len(np.unique(y.entries[val])) == 2]
        assert len(handed) == len(want)
        for (tr, val), (want_tr, want_val) in zip(handed, want):
            assert np.array_equal(tr, want_tr)
            assert np.array_equal(val, want_val)

    def test_empty_grid_rejected(self):
        y = planted_graph(n=10, seed=9)
        train, _ = split_observations(y, 0.8, seed=9, tie_symmetric=False)
        with pytest.raises(ValueError):
            cross_validate_lambda(y, train, [], folds=2, seed=0, config=FitConfig())


class TestRunSplits:
    def test_five_splits_shape_and_determinism(self):
        y = planted_graph(n=16, seed=10)
        config = FitConfig(seed=100, rel_tol=1e-3, max_outer_iters=8)
        results = run_splits(y, n_splits=3, train_fraction=0.8, config=config,
                             tie_symmetric=False)
        assert [r.seed for r in results] == [100, 101, 102]
        again = run_splits(y, n_splits=3, train_fraction=0.8, config=config,
                           tie_symmetric=False)
        assert [r.auc for r in results] == [r.auc for r in again]


def test_package_imports_without_scipy():
    src = str(Path(laftr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, laftr, laftr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert run.stdout.strip() == "[]"
