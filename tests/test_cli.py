"""End-to-end command-line workflows against real files."""

import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from laftr import (
    FitConfig,
    ModelState,
    ObservationMask,
    ParseError,
    auc_from_scores,
    distinct_link_probabilities,
    evaluate_split,
    fit,
    link_probability,
    load_dense_matrix,
    predict_links,
    sample_lfrm,
    sigmoid,
    split_observations,
    write_dense,
    write_mask,
)
from laftr import cli
from laftr.cli import dump_communities, load_model, main
from conftest import (
    oracle_link_probabilities,
    oracle_split_observations,
    oracle_write_mask,
    oracle_write_predictions,
    random_instance,
)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def planted_file(tmp_path):
    path = tmp_path / "graph.txt"
    code = run_cli(
        "generate", "--out", str(path), "--n", "24", "--planted-k", "2", "--seed", "0"
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_matrix_and_truth(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--out", str(out), "--n", "12", "--alpha", "1.0",
                       "--seed", "3") == 0
        with open(out) as handle:
            adj = load_dense_matrix(handle)
        assert adj.n == 12
        truth = json.loads((tmp_path / "g.txt.truth.json").read_text())
        assert truth["mode"] == "sampled"
        assert len(truth["z"]) == 12

    @pytest.mark.parametrize("flags", [
        ["--sigma-w", "nan"], ["--sigma-w", "inf"], ["--alpha", "nan"], ["--alpha", "inf"],
        ["--planted-k", "2", "--w-in", "nan"], ["--planted-k", "2", "--w-out", "nan"],
        ["--planted-k", "2", "--w-in", "inf"], ["--planted-k", "2", "--w-out=-inf"],
    ])
    def test_non_finite_value_is_data_error(self, tmp_path, capsys, flags):
        # NaN and inf would write an all-zero graph and a truth file that is not JSON;
        # they are rejected before numpy computes with them
        out = tmp_path / "g.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("generate", "--out", str(out), "--n", "6", *flags) == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_planted_mode_records_factors(self, planted_file):
        truth = json.loads((planted_file.parent / "graph.txt.truth.json").read_text())
        assert truth["mode"] == "planted"
        z = np.asarray(truth["z"])
        assert z.shape == (24, 2)
        assert np.asarray(truth["w"])[0][0] == 6.0


class TestFitPredict:
    def test_round_trip_probabilities(self, tmp_path, planted_file):
        model_path = tmp_path / "model.json"
        assert run_cli(
            "fit", "--input", str(planted_file), "--out", str(model_path),
            "--seed", "1", "--rel-tol", "1e-3", "--max-iters", "20",
        ) == 0

        pairs_path = tmp_path / "pairs.txt"
        pairs = [(0, 1), (0, 23), (5, 17), (12, 3)]
        pairs_path.write_text("".join(f"{i} {j}\n" for i, j in pairs))
        preds_path = tmp_path / "preds.csv"
        assert run_cli("predict", "--model", str(model_path), "--input", str(pairs_path),
                       "--out", str(preds_path)) == 0

        state, payload = load_model(str(model_path))
        lines = preds_path.read_text().strip().splitlines()
        assert lines[0] == "i,j,probability"
        for line, (i, j) in zip(lines[1:], pairs):
            i_out, j_out, prob = line.split(",")
            assert (int(i_out), int(j_out)) == (i, j)
            # probabilities recomputed from the dumped factors must agree
            assert float(prob) == pytest.approx(link_probability(state, i, j), abs=1e-9)

    def test_saved_model_reproduces_evaluate_split_auc(self, tmp_path):
        _, _, y = sample_lfrm(60, 1.0, 1.0, 0)
        train, test = split_observations(y, 0.8, seed=0)
        auc, _ = evaluate_split(y, train, test, FitConfig(seed=0, max_outer_iters=3))

        graph_path, mask_path = tmp_path / "g.txt", tmp_path / "g.mask"
        graph_path.write_text(write_dense(y))
        mask_path.write_text(write_mask(train, test))
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--input", str(graph_path), "--mask", str(mask_path),
                       "--out", str(model_path), "--seed", "0", "--max-iters", "3") == 0
        rows, cols = np.nonzero(test.observed)
        pairs = list(zip(rows.tolist(), cols.tolist()))
        pairs_path, preds_path = tmp_path / "pairs.txt", tmp_path / "preds.csv"
        pairs_path.write_text("".join(f"{i} {j}\n" for i, j in pairs))
        assert run_cli("predict", "--model", str(model_path), "--input", str(pairs_path),
                       "--out", str(preds_path)) == 0

        state, _ = load_model(str(model_path))
        expected = oracle_link_probabilities(state, pairs)
        lines = ["i,j,probability"] + [f"{i},{j},{p:.17g}" for (i, j), p in zip(pairs, expected)]
        assert preds_path.read_text() == "\n".join(lines) + "\n"
        assert auc_from_scores(expected, y.entries[rows, cols]) == auc

    def test_model_json_schema(self, tmp_path, planted_file):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--input", str(planted_file), "--out", str(model_path),
                "--rel-tol", "1e-3", "--max-iters", "10", "--seed", "7")
        payload = json.loads(model_path.read_text())
        assert set(payload) == {"k", "lambda", "z", "w", "objective_trace", "seed"}
        assert payload["seed"] == 7
        assert len(payload["z"]) == 24
        assert all(v in (0, 1) for row in payload["z"] for v in row)
        assert len(payload["w"]) == payload["k"]

    def test_byte_identical_reruns(self, tmp_path, planted_file):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["fit", "--input", str(planted_file), "--seed", "2",
                "--rel-tol", "1e-3", "--max-iters", "15"]
        assert run_cli(*argv, "--out", str(m1)) == 0
        assert run_cli(*argv, "--out", str(m2)) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_fit_with_mask_and_auc_trace(self, tmp_path, planted_file):
        # build a mask file via eval's split emission, then fit against it
        prefix = tmp_path / "ev"
        assert run_cli("eval", "--input", str(planted_file), "--out", str(prefix),
                       "--splits", "1", "--seed", "5", "--rel-tol", "1e-3",
                       "--max-iters", "10") == 0
        mask_path = tmp_path / "ev.split5.mask"
        assert mask_path.exists()

        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--input", str(planted_file), "--mask", str(mask_path),
                       "--out", str(model_path), "--auc-trace", "--seed", "5",
                       "--rel-tol", "1e-3", "--max-iters", "10") == 0
        trace_lines = (tmp_path / "model.json.trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "seconds,heldout_auc"
        assert len(trace_lines) >= 2
        last_auc = float(trace_lines[-1].split(",")[1])
        assert 0.0 <= last_auc <= 1.0

    def test_include_diagonal_fits_the_full_mask(self, tmp_path, planted_file):
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--input", str(planted_file), "--out", str(model_path),
                       "--include-diagonal", "--seed", "3", "--max-iters", "3") == 0
        with open(planted_file) as handle:
            y = load_dense_matrix(handle)
        config = FitConfig(seed=3, max_outer_iters=3)
        with_diag = fit(y, ObservationMask.full(y.n, include_diagonal=True), config)
        without = fit(y, ObservationMask.full(y.n), config)
        trace = json.loads(model_path.read_text())["objective_trace"]
        assert trace == with_diag.objective_trace != without.objective_trace

    def test_auc_trace_on_single_class_held_out_labels_fails_before_fitting(
            self, tmp_path, monkeypatch, capsys):
        graph_path = tmp_path / "graph.txt"
        assert run_cli("generate", "--out", str(graph_path), "--n", "12",
                       "--planted-k", "2", "--seed", "0") == 0
        with open(graph_path) as handle:
            y = load_dense_matrix(handle)
        held_out = np.zeros((12, 12), dtype=bool)
        non_links = np.argwhere((y.entries == 0) & ~np.eye(12, dtype=bool))[:3]
        held_out[non_links[:, 0], non_links[:, 1]] = True
        train = ObservationMask(12, ~np.eye(12, dtype=bool) & ~held_out)
        mask_path = tmp_path / "m.mask"
        mask_path.write_text(write_mask(train, ObservationMask(12, held_out)))
        monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: pytest.fail("fit was called"))
        code = run_cli("fit", "--input", str(graph_path), "--mask", str(mask_path),
                       "--out", str(tmp_path / "m.json"), "--auc-trace")
        assert code == 2
        assert "got 0 positives and 3 negatives" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_auc_trace_without_mask_is_data_error(self, tmp_path, planted_file, capsys):
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--auc-trace")
        assert code == 2
        assert "auc-trace" in capsys.readouterr().err


class TestEval:
    def test_artifacts(self, tmp_path, planted_file):
        prefix = tmp_path / "ev"
        assert run_cli("eval", "--input", str(planted_file), "--out", str(prefix),
                       "--splits", "3", "--seed", "0", "--rel-tol", "1e-3",
                       "--max-iters", "10") == 0
        csv_lines = (tmp_path / "ev.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "split_seed,lambda,k_final,auc,seconds"
        assert len(csv_lines) == 4
        aggregate = json.loads((tmp_path / "ev.json").read_text())
        assert set(aggregate) == {"mean_auc", "std_auc", "runs"}
        assert len(aggregate["runs"]) == 3
        for seed in (0, 1, 2):
            assert (tmp_path / f"ev.split{seed}.mask").exists()

    def test_mask_file_matches_oracle_split(self, tmp_path, planted_file):
        assert run_cli("eval", "--input", str(planted_file), "--out", str(tmp_path / "ev"),
                       "--splits", "1", "--seed", "4", "--max-iters", "1") == 0
        with open(planted_file) as handle:
            y = load_dense_matrix(handle)
        expected = oracle_write_mask(*oracle_split_observations(y, 0.8, 4, y.symmetric_hint))
        assert (tmp_path / "ev.split4.mask").read_text() == expected

    def test_identical_auc_across_reruns(self, tmp_path, planted_file):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        argv = ["eval", "--input", str(planted_file), "--splits", "2", "--seed", "1",
                "--rel-tol", "1e-3", "--max-iters", "10"]
        run_cli(*argv, "--out", str(p1))
        run_cli(*argv, "--out", str(p2))
        agg1 = json.loads((tmp_path / "a.json").read_text())
        agg2 = json.loads((tmp_path / "b.json").read_text())
        assert agg1["mean_auc"] == agg2["mean_auc"]
        assert [r["auc"] for r in agg1["runs"]] == [r["auc"] for r in agg2["runs"]]


class TestCv:
    def test_table_and_best(self, tmp_path, planted_file, capsys):
        out = tmp_path / "cv.csv"
        assert run_cli("cv", "--input", str(planted_file), "--out", str(out),
                       "--lambda-grid", "0.5,1000", "--folds", "2", "--seed", "0",
                       "--rel-tol", "1e-3", "--max-iters", "8") == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,mean_auc"
        assert len(lines) == 3
        assert "best_lambda=0.5" in capsys.readouterr().out

    def test_bad_grid_is_data_error(self, tmp_path, planted_file):
        assert run_cli("cv", "--input", str(planted_file),
                       "--out", str(tmp_path / "cv.csv"),
                       "--lambda-grid", "0.5,banana") == 2


class TestCommunities:
    def test_identity_memberships_are_singletons(self, tmp_path):
        payload = {"k": 3, "lambda": 0.5, "z": np.eye(3, dtype=int).tolist(),
                   "w": np.zeros((3, 3)).tolist(), "objective_trace": [0.0], "seed": 0}
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(payload))
        report = dump_communities(np.array(payload["z"], dtype=float))
        assert report.count("size 1") == 3

    def test_overlapping_node_listed_in_both(self):
        payload = {"k": 2, "lambda": 0.5,
                   "z": [[1, 1], [1, 0], [0, 1]],
                   "w": np.zeros((2, 2)).tolist(), "objective_trace": [], "seed": 0}
        report = dump_communities(np.array(payload["z"], dtype=float), labels=["ada", "bob", "cyd"])
        lines = report.strip().splitlines()
        assert sum("ada" in line for line in lines) == 2

    def test_sorted_by_size_ascending(self):
        payload = {"k": 2, "lambda": 0.5,
                   "z": [[1, 1], [1, 0], [1, 0]],
                   "w": np.zeros((2, 2)).tolist(), "objective_trace": [], "seed": 0}
        lines = dump_communities(np.array(payload["z"], dtype=float)).strip().splitlines()
        assert "community 1 (size 1)" in lines[0]
        assert "community 0 (size 3)" in lines[1]

    def test_zero_feature_model(self, tmp_path):
        payload = {"k": 0, "lambda": 0.5, "z": [[], [], []], "w": [],
                   "objective_trace": [], "seed": 0}
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(payload))
        assert run_cli("communities", "--model", str(model_path)) == 0
        assert "zero active features" in dump_communities(np.array(payload["z"], dtype=float))

    def test_label_count_mismatch(self):
        payload = {"k": 1, "lambda": 0.5, "z": [[1], [1]],
                   "w": [[0.0]], "objective_trace": [], "seed": 0}
        with pytest.raises(ValueError, match="labels"):
            dump_communities(np.array(payload["z"], dtype=float), labels=["only-one"])

    def test_cli_reads_fit_output(self, tmp_path, planted_file):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--input", str(planted_file), "--out", str(model_path),
                "--rel-tol", "1e-3", "--max-iters", "10")
        out_path = tmp_path / "report.txt"
        assert run_cli("communities", "--model", str(model_path),
                       "--out", str(out_path)) == 0
        assert out_path.read_text().startswith(("community", "no communities"))


class TestModelFile:
    GOOD = {"k": 2, "lambda": 0.5, "z": [[1, 0], [0, 1]], "w": [[1.0, 2.0], [3.0, 4.0]],
            "objective_trace": [], "seed": 0}

    @pytest.mark.parametrize("command", ["predict", "communities"])
    @pytest.mark.parametrize("field, change", [
        ("w", {"w": [[1.0, 2.0, 3.0, 4.0]]}),         # right size, wrong shape
        ("w", {"w": [[1.0, 2.0], [3.0]]}),
        ("k", {"k": 1, "w": [[1.0]]}),                 # z has 2 columns
        ("k", {"k": 3, "w": np.zeros((3, 3)).tolist()}),
    ])
    def test_malformed_model_is_data_error(self, tmp_path, capsys, command, field, change):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({**self.GOOD, **change}))
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 1\n")
        argv = {"predict": ["--input", str(pairs_path), "--out", str(tmp_path / "p.csv")],
                "communities": []}[command]
        assert run_cli(command, "--model", str(model_path), *argv) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["z", "k", "w", "lambda"])
    def test_missing_field_is_parse_error(self, tmp_path, field):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({k: v for k, v in self.GOOD.items() if k != field}))
        with pytest.raises(ParseError, match=f"'{field}'"):
            load_model(str(model_path))

    def test_well_formed_model_loads(self, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(self.GOOD))
        state, _ = load_model(str(model_path))
        assert np.array_equal(state.w, [[1.0, 2.0], [3.0, 4.0]])


class TestPairsFile:
    """The pair file and predictions CSV through `laftr predict`."""

    @pytest.fixture
    def model_12(self, tmp_path):
        z = (np.arange(12)[:, None] % 2 == np.arange(2)).astype(float)
        state = ModelState.from_factors(z, np.array([[1.0, -1.0], [-0.5, 2.0]]), 0.5)
        path = tmp_path / "m.json"
        path.write_text(cli._model_to_json(state, [], 0))
        return path

    def predict(self, tmp_path, model, text):
        pairs_path, out = tmp_path / "pairs.txt", tmp_path / "preds.csv"
        pairs_path.write_text(text)
        return run_cli("predict", "--model", str(model), "--input", str(pairs_path),
                       "--out", str(out)), out

    def test_commas_comments_and_blank_lines_are_accepted(self, tmp_path, model_12):
        code, out = self.predict(tmp_path, model_12, "0 1\n# c\n\n3,4\n 5 , 11 \r\n")
        assert code == 0
        state, _ = load_model(str(model_12))
        pairs = [(0, 1), (3, 4), (5, 11)]
        rows = [f"{i},{j},{p:.17g}" for (i, j), p in
                zip(pairs, oracle_link_probabilities(state, pairs))]
        assert out.read_text() == "\n".join(["i,j,probability", *rows]) + "\n"

    @pytest.mark.parametrize("text, error", [
        ("0 1\n2\n", "line 2: expected 'i j', got '2'"),
        ("0 1\n\n1 2 3\n", "line 3: expected 'i j', got '1 2 3'"),
        ("# c\n0 x\n", "line 2: non-integer pair in '0 x'"),
        ("0 1\n# c\n\n3,4\n0 99\n", "line 5: pair index out of range (n=12) in '0 99'"),
        ("-1 0\n", "line 1: non-integer pair in '-1 0'"),
        ("0 1\n1_0 1\n", "line 2: non-integer pair in '1_0 1'"),
    ])
    def test_bad_line_exits_2_and_names_it(self, tmp_path, capsys, model_12, text, error):
        code, out = self.predict(tmp_path, model_12, text)
        assert code == 2
        assert f"laftr: error: {error}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_empty_file_writes_header_only(self, tmp_path, model_12):
        code, out = self.predict(tmp_path, model_12, "")
        assert code == 0
        assert out.read_text() == "i,j,probability\n"


@st.composite
def repeated_row_states(draw):
    """A state whose nodes share a few membership rows, and pairs drawn with repeats.

    W is symmetric in half the draws, so mirrored pattern pairs can share a
    probability; the weights come from a short list, so distinct pattern
    pairs can share one anyway.
    """
    k = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    z = np.array([rows[r] for r in draw(st.lists(st.integers(0, len(rows) - 1),
                                                 min_size=n, max_size=n))], dtype=float)
    weights = st.sampled_from([-40.0, -3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 700.0])
    w = np.array(draw(st.lists(weights, min_size=k * k, max_size=k * k))).reshape(k, k)
    if draw(st.booleans()):
        w = np.triu(w) + np.triu(w, 1).T
    nodes = st.integers(0, n - 1)
    pairs = draw(st.lists(st.sampled_from(draw(st.lists(st.tuples(nodes, nodes), min_size=1,
                                                        max_size=5))), max_size=30))
    state = ModelState.from_factors(z.reshape(n, k), w, 0.5)
    return state, np.array(pairs, dtype=np.int64).reshape(-1, 2)


class TestPredictPatternPairs:
    """laftr predict and predict_links on the pattern-pair path, against per-pair oracles."""

    @staticmethod
    def check(tmp_path, state, pairs):
        model_path, pairs_path, out = (tmp_path / name for name in ("m.json", "p.txt", "p.csv"))
        model_path.write_text(cli._model_to_json(state, [], 0))
        pairs_path.write_text("".join(f"{i} {j}\n" for i, j in pairs.tolist()))
        assert run_cli("predict", "--model", str(model_path), "--input", str(pairs_path),
                       "--out", str(out)) == 0
        expected = oracle_link_probabilities(state, pairs.tolist())
        assert out.read_bytes() == oracle_write_predictions(pairs, expected, state.n).encode()
        probs = predict_links(state, pairs)
        assert probs.dtype == np.float64 and probs.shape == (len(pairs),)
        assert probs.tobytes() == sigmoid(state.logits[pairs[:, 0], pairs[:, 1]]).tobytes()
        values, index = distinct_link_probabilities(state, pairs[:, 0], pairs[:, 1])
        assert values[index].tobytes() == probs.tobytes()
        assert np.unique(values.view(np.uint64)).size == values.size

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=repeated_row_states())
    def test_csv_and_probabilities_match_the_oracles(self, tmp_path, drawn):
        self.check(tmp_path, *drawn)

    def test_mirrored_pattern_pairs_share_one_value(self, tmp_path):
        z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        state = ModelState.from_factors(z, np.array([[1.0, 2.0], [2.0, -1.0]]), 0.5)
        pairs = np.array([[0, 1], [1, 0], [2, 1], [0, 2]])
        values, index = distinct_link_probabilities(state, pairs[:, 0], pairs[:, 1])
        assert values.tolist() == [float(sigmoid(1.0)), float(sigmoid(2.0))]
        assert index.tolist() == [1, 1, 1, 0]
        self.check(tmp_path, state, pairs)

    def test_single_pair(self, tmp_path):
        _, _, state = random_instance(np.random.default_rng(3), 6, 2)
        self.check(tmp_path, state, np.array([[4, 1]]))

    def test_empty_pair_file(self, tmp_path):
        _, _, state = random_instance(np.random.default_rng(3), 6, 2)
        self.check(tmp_path, state, np.zeros((0, 2), dtype=np.int64))
        assert (tmp_path / "p.csv").read_text() == "i,j,probability\n"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--no-such-flag"])
        assert excinfo.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run_cli("fit", "--input", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path / "m.json")) == 2

    def test_malformed_matrix_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 2\n0 0\n")
        code = run_cli("fit", "--input", str(bad), "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "fit --mask", "fit", "fit --format edges"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys, command):
        graph_path, bad = tmp_path / "g.txt", tmp_path / "bad.txt"
        graph_path.write_text("0 1 0\n1 0 1\n0 1 0\n")
        lines = {"predict": b"0 1\n# c\n1 0\xff\n", "fit --mask": b"0 1 1\n# c\n1 0\xff 0\n",
                 "fit": b"0 1 0\n1 0 1\n0 1\xff 0\n", "fit --format edges": b"0 1\n\n1 \xff\n"}
        bad.write_bytes(lines[command])
        model = tmp_path / "m.json"
        state = ModelState.from_factors(np.eye(3), np.zeros((3, 3)), 0.5)
        model.write_text(cli._model_to_json(state, [], 0))
        argv = {"predict": ["predict", "--model", str(model), "--input", str(bad)],
                "fit --mask": ["fit", "--input", str(graph_path), "--mask", str(bad)],
                "fit": ["fit", "--input", str(bad)],
                "fit --format edges": ["fit", "--format", "edges", "--input", str(bad)]}[command]
        out = tmp_path / "out.txt"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "laftr: error: line 3: undecodable byte 0xff: invalid start byte\n")
        assert not out.exists()

    def test_a_byte_of_the_model_file_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        # "\r\n" and a lone "\r" end lines, as in text mode
        state = ModelState.from_factors(np.eye(3), np.zeros((3, 3)), 0.5)
        lines = cli._model_to_json(state, [], 0).encode().split(b"\n")
        lines[3] += b"\xff"
        model = tmp_path / "m.json"
        model.write_bytes(b"\r\n".join(lines[:2]) + b"\r" + b"\n".join(lines[2:]))
        pairs, out = tmp_path / "pairs.txt", tmp_path / "p.csv"
        pairs.write_text("0 1\n")
        assert run_cli("predict", "--model", str(model), "--input", str(pairs),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "laftr: error: line 4: undecodable byte 0xff: invalid start byte\n")
        assert not out.exists()

    def test_a_byte_of_the_labels_file_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        model, labels = tmp_path / "m.json", tmp_path / "names.txt"
        model.write_text(cli._model_to_json(
            ModelState.from_factors(np.eye(3), np.zeros((3, 3)), 0.5), [], 0))
        labels.write_bytes(b"a\r\nb\rc\xff\n")
        assert run_cli("communities", "--model", str(model), "--labels", str(labels)) == 2
        assert capsys.readouterr().err == (
            "laftr: error: line 3: undecodable byte 0xff: invalid start byte\n")

    def test_labels_lines_end_as_in_text_mode(self, tmp_path, capsys):
        model, labels = tmp_path / "m.json", tmp_path / "names.txt"
        model.write_text(cli._model_to_json(
            ModelState.from_factors(np.eye(4), np.zeros((4, 4)), 0.5), [], 0))
        labels.write_bytes("a b\r\n\u00e9\rc\n\n \t\r\nd".encode())
        assert run_cli("communities", "--model", str(model), "--labels", str(labels)) == 0
        assert capsys.readouterr().out == dump_communities(np.eye(4), ["a b", "\u00e9", "c", "d"])

    def test_graph_too_large_for_memory_is_data_error(self, tmp_path, capsys):
        # node id 1e8 asks for a 1e16-byte matrix, past any address space, so
        # the allocation fails at once and nothing is allocated
        edges = tmp_path / "edges.txt"
        edges.write_text("0 100000000\n")
        out = tmp_path / "m.json"
        assert run_cli("fit", "--format", "edges", "--input", str(edges), "--out", str(out)) == 2
        assert "Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "communities"])
    @pytest.mark.parametrize("text, field", [
        ('"w": [[null]]', "'w'"),                   # loaded as NaN
        ('"w": [[Infinity]]', "'w'"),
        ('"w": [["1"]]', "'w'"),
        ('"lambda": "x"', "'lambda'"),
        ('"lambda": null', "'lambda'"),
        ('"z": [[null], [0]]', "'z'"),              # loaded as NaN
        ('"z": [[1], [0, 1]]', "'z'"),              # ragged
        ('"z": "ab"', "'z'"),
        ('"z": [["1"], ["0"]]', "'z'"),             # numpy converts the strings
        ('"z": [[true], [false]]', "'z'"),          # and the booleans
        ('"k": 1.0', "'k'"),
        ('"k": true', "'k'"),
        (None, "JSON object"),                       # a top-level array
        # integers too large for a float: float(10**400) raises OverflowError
        pytest.param(f'"lambda": {10**400}', "'lambda'", id="lambda-10**400"),
        pytest.param(f'"w": [[{10**400}]]', "'w'", id="w-10**400"),
        pytest.param(f'"z": [[{10**400}], [0]]', "'z'", id="z-10**400"),
    ])
    def test_bad_model_values_are_data_errors(self, tmp_path, capsys, command, text, field):
        fields = {'"z"': '"z": [[1], [0]]', '"k"': '"k": 1', '"w"': '"w": [[1.5]]',
                  '"lambda"': '"lambda": 0.5'}
        if text is not None:
            fields[text.split(":")[0]] = text
        body = ", ".join(fields.values())
        model_path = tmp_path / "m.json"
        model_path.write_text("[1, 2]" if text is None else "{" + body + "}")
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 1\n")
        argv = {"predict": ["--input", str(pairs_path), "--out", str(tmp_path / "p.csv")],
                "communities": []}[command]
        assert run_cli(command, "--model", str(model_path), *argv) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_non_finite_objective_is_numerical_error(self, tmp_path, planted_file, capsys):
        # a finite lambda whose square overflows makes every objective
        # infinite: the fit must stop with exit 3, not raise OverflowError or
        # run to the iteration cap on a NaN improvement
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--lambda", "1e200")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("laftr: numerical error") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()
        assert run_cli("cv", "--input", str(planted_file), "--out", str(tmp_path / "cv.csv"),
                       "--lambda-grid", "1,1e200", "--folds", "2", "--max-iters", "2") == 3
        err = capsys.readouterr().err
        assert err.startswith("laftr: numerical error") and err.count("\n") == 1

    @pytest.mark.parametrize("command, extra", [("eval", []), ("cv", ["--lambda-grid", "0.5"])])
    def test_include_diagonal_is_fit_only(self, tmp_path, planted_file, command, extra):
        # splits never make the diagonal eligible, so only fit takes the flag
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--input", str(planted_file), "--out", str(tmp_path / "o"),
                  *extra, "--include-diagonal"])
        assert excinfo.value.code == 1

    def test_include_diagonal_excludes_mask(self, tmp_path, planted_file):
        # the mask file decides the observed entries, so the flag would be ignored
        mask = tmp_path / "train.mask"
        mask.write_text("0 1 1\n1 0 0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--input", str(planted_file), "--out", str(tmp_path / "m.json"),
                  "--mask", str(mask), "--include-diagonal"])
        assert excinfo.value.code == 1
        assert not (tmp_path / "m.json").exists()

    def test_mask_pair_in_train_and_test_is_data_error(self, tmp_path, capsys):
        # one pair flagged both 1 and 0 would be trained on and scored as held out
        graph_path, mask_path = tmp_path / "g.txt", tmp_path / "g.mask"
        assert run_cli("generate", "--out", str(graph_path), "--n", "12", "--planted-k", "2",
                       "--seed", "0") == 0
        full = ObservationMask.full(12)
        mask_path.write_text(write_mask(full, ObservationMask(12, np.zeros((12, 12), bool)))
                             + "0 1 0\n0 1 1\n")
        code = run_cli("fit", "--input", str(graph_path), "--mask", str(mask_path),
                       "--out", str(tmp_path / "m.json"), "--auc-trace")
        assert code == 2
        assert "conflicting flag for pair (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_bad_config_value_is_data_error(self, tmp_path, planted_file, capsys):
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--lambda", "-1")
        assert code == 2
        # NaN fails every comparison, so it must be rejected, not run to the cap
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--rel-tol", "nan")
        assert code == 2
        # an infinite scale would draw an infinite W at initialization
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--sigma-w", "inf")
        assert code == 2
        # an infinite penalty would make every objective infinite
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--lambda", "inf")
        assert code == 2
        capsys.readouterr()
        # default_rng rejects a negative seed, so FitConfig does, by name
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--seed", "-1")
        assert code == 2
        assert capsys.readouterr().err == "laftr: error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "g.txt", "--out", "m.json"],
        ["eval", "--input", "g.txt", "--out", "r"],
        ["cv", "--input", "g.txt", "--out", "cv.csv", "--lambda-grid", "0.5"],
    ])
    def test_default_fit_flags_build_the_default_config(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._fit_config_from_args(args) == FitConfig()


# a value for every flag of every command, each unlike the flag's default
FLAG_VALUES = {
    "--input": "g.txt", "--format": "edges", "--mask": "m.txt", "--include-diagonal": None,
    "--out": "o", "--auc-trace": None, "--lambda": "0.25", "--sigma-w": "0.5", "--k-init": "3",
    "--seed": "7", "--max-iters": "9", "--rel-tol": "0.001", "--model": "m.json",
    "--splits": "2", "--train-fraction": "0.7", "--tie-symmetric": "no",
    "--lambda-grid": "0.5,1", "--folds": "3", "--n": "12", "--alpha": "2.0",
    "--planted-k": "2", "--w-in": "4", "--w-out": "-4", "--labels": "names.txt",
}


def command_argvs(name):
    """The command with its required flags alone, then once with each other flag added."""
    # argparse lists a parser's flags in ``_actions`` only
    actions = [a for a in cli.command_parser(name)._actions
               if a.option_strings and a.dest != "help"]
    required = [token for a in actions if a.required
                for token in (a.option_strings[0], FLAG_VALUES[a.option_strings[0]])]
    argvs = [[name, *required]]
    for action in actions:
        if not action.required:
            value = FLAG_VALUES[action.option_strings[0]]
            argvs.append([name, *required, action.option_strings[0],
                          *([] if value is None else [value])])
    return argvs


class TestCommandParser:
    """main parses with the invoked command's flags alone, as build_parser() would."""

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_same_namespace_as_the_full_parser(self, name):
        argvs = command_argvs(name)
        default = cli.build_parser().parse_args(argvs[0])
        for argv in argvs:
            args = cli.command_parser(name).parse_args(argv[1:])
            assert args == cli.build_parser().parse_args(argv), argv
            assert args.command == name
            assert argv == argvs[0] or args != default, argv  # the flag took effect

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in cli._COMMANDS)])
    def test_help_is_byte_identical(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert capsys.readouterr().out == text
        assert text.startswith(f"usage: laftr {argv[0]} [-h]" if len(argv) == 2
                               else "usage: laftr [-h]")

    @pytest.mark.parametrize("argv, error", [
        (["predict", "--model", "m.json", "--out", "p.csv"],
         "laftr predict: error: the following arguments are required: --input"),
        (["predict", "--model", "m.json", "--input", "p.txt", "--out", "p.csv", "--bogus"],
         "laftr predict: error: unrecognized arguments: --bogus"),
        ([], "laftr: error: the following arguments are required: command"),
        (["frobnicate"], "laftr: error: argument command: invalid choice: "),
        (["--seed", "1", "fit"], "laftr: error: argument command: invalid choice: '1'"),
    ])
    def test_usage_errors_exit_1_with_a_usage_line(self, capsys, argv, error):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        prog = error.split(": error")[0]
        assert lines[0].startswith(f"usage: {prog} [-h]")
        assert lines[-1].startswith(error)

    def test_argv_none_reads_sys_argv(self, tmp_path, monkeypatch):
        out = tmp_path / "g.txt"
        monkeypatch.setattr(sys, "argv", ["laftr", "generate", "--out", str(out), "--n", "6"])
        assert main() == 0
        assert load_dense_matrix(out.read_text().splitlines()).n == 6

    def test_every_command_runs_without_the_full_parser(self, tmp_path, planted_file,
                                                         monkeypatch):
        def refuse():
            raise AssertionError("a command's run built every command's parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        model, pairs, fit_flags = tmp_path / "m.json", tmp_path / "pairs.txt", ["--max-iters", "2"]
        pairs.write_text("0 1\n2 3\n")
        argvs = [
            ["generate", "--out", str(tmp_path / "g.txt"), "--n", "8"],
            ["fit", "--input", str(planted_file), "--out", str(model), *fit_flags],
            ["predict", "--model", str(model), "--input", str(pairs),
             "--out", str(tmp_path / "p.csv")],
            ["eval", "--input", str(planted_file), "--out", str(tmp_path / "r"),
             "--splits", "1", *fit_flags],
            ["cv", "--input", str(planted_file), "--out", str(tmp_path / "cv.csv"),
             "--lambda-grid", "1", "--folds", "2", *fit_flags],
            ["communities", "--model", str(model), "--out", str(tmp_path / "c.txt")],
        ]
        assert sorted(argv[0] for argv in argvs) == sorted(cli._COMMANDS)
        for argv in argvs:
            assert main(argv) == 0, argv
