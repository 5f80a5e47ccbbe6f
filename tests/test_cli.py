"""End-to-end command-line workflows against real files."""

import json

import numpy as np
import pytest

from laftr import (
    FitConfig,
    ModelState,
    auc_from_scores,
    evaluate_split,
    link_probability,
    load_dense_matrix,
    sample_lfrm,
    split_observations,
    write_dense,
    write_mask,
)
from laftr.cli import dump_communities, load_model, main
from conftest import oracle_link_probabilities, oracle_split_observations, oracle_write_mask


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
        report = dump_communities(payload)
        assert report.count("size 1") == 3

    def test_overlapping_node_listed_in_both(self):
        payload = {"k": 2, "lambda": 0.5,
                   "z": [[1, 1], [1, 0], [0, 1]],
                   "w": np.zeros((2, 2)).tolist(), "objective_trace": [], "seed": 0}
        report = dump_communities(payload, labels=["ada", "bob", "cyd"])
        lines = report.strip().splitlines()
        assert sum("ada" in line for line in lines) == 2

    def test_sorted_by_size_ascending(self):
        payload = {"k": 2, "lambda": 0.5,
                   "z": [[1, 1], [1, 0], [1, 0]],
                   "w": np.zeros((2, 2)).tolist(), "objective_trace": [], "seed": 0}
        lines = dump_communities(payload).strip().splitlines()
        assert "community 1 (size 1)" in lines[0]
        assert "community 0 (size 3)" in lines[1]

    def test_zero_feature_model(self, tmp_path):
        payload = {"k": 0, "lambda": 0.5, "z": [[], [], []], "w": [],
                   "objective_trace": [], "seed": 0}
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(payload))
        assert run_cli("communities", "--model", str(model_path)) == 0
        assert "zero active features" in dump_communities(payload)

    def test_label_count_mismatch(self):
        payload = {"k": 1, "lambda": 0.5, "z": [[1], [1]],
                   "w": [[0.0]], "objective_trace": [], "seed": 0}
        with pytest.raises(ValueError, match="labels"):
            dump_communities(payload, labels=["only-one"])

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

    def test_well_formed_model_loads(self, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(self.GOOD))
        state, _ = load_model(str(model_path))
        assert np.array_equal(state.w, [[1.0, 2.0], [3.0, 4.0]])


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

    def test_non_finite_objective_is_numerical_error(self, tmp_path, planted_file, capsys):
        # an infinite penalty makes every objective infinite: the fit must
        # stop with exit 3, not run to the iteration cap on a NaN improvement
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--lambda", "inf")
        assert code == 3
        assert "numerical error" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_bad_config_value_is_data_error(self, tmp_path, planted_file):
        code = run_cli("fit", "--input", str(planted_file),
                       "--out", str(tmp_path / "m.json"), "--lambda", "-1")
        assert code == 2
