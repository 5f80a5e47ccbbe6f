"""The benchmark's workloads: instance generation, the timed operations, checks.

Every call into laftr goes through a module attribute looked up at call
time (``graph.split_observations``, ``cli.main``, ...) so that the tracer's
rebinding sees it. Fits get only the options the command line exposes.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from laftr import cli, evaluation, generator, graph, model
from laftr.optimizer import FitConfig

TRAIN_FRACTION = 0.8


def now() -> tuple[float, float]:
    """(wall clock, this process's CPU time)."""
    return time.perf_counter(), time.process_time()


def span(start: tuple[float, float]) -> tuple[float, float, float, float]:
    """(wall start, wall end, CPU start, CPU end) from ``start`` to now."""
    wall, cpu = now()
    return start[0], wall, start[1], cpu

# read-path steps, in the order they run; each is one operation
READ_STEPS = ("load_dense_matrix", "load_model", "split_observations",
              "predict_links", "auc_from_scores", "write_mask", "cli_predict")
EVAL_STEPS = ("split_observations", "predict_links", "auc_from_scores")


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object          # seed -> (z, w, AdjacencyMatrix)
    fit_options: dict | None  # None: score the generating factors, no fit
    tie_symmetric: bool | None
    instances: int            # distinct instances every untraced run completes
    trace_instances: int      # instances a traced run runs untraced and traced
    read_reps: int            # read-path repetitions per operation
    floors: bool = False      # apply the criterion-2 recovery floors to each fit

    def config(self, seed: int) -> FitConfig:
        return FitConfig(seed=seed, **self.fit_options)


def _planted(seed):
    z = generator.planted_blocks(100, 3)
    w = generator.block_weights(3, on=6.0, off=-6.0)
    return z, w, generator.sample_edges(z, w, seed)


def _ibp_small(seed):
    return generator.sample_lfrm(230, 1.0, 1.0, seed)


def _ibp_large(seed):
    return generator.sample_lfrm(1000, 3.0, 1.0, seed)


# why each workload exists: BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="planted-eval",
            generate=_planted,
            fit_options=dict(lam=4.0, rel_tol=1e-4, max_outer_iters=40),
            tie_symmetric=False, instances=4, trace_instances=2, read_reps=5,
            floors=True,
        ),
        Workload(
            name="ibp-grow",
            generate=_ibp_small,
            fit_options=dict(max_outer_iters=10),
            tie_symmetric=None, instances=2, trace_instances=1, read_reps=3,
        ),
        Workload(
            name="score-large",
            generate=_ibp_large,
            fit_options=None,
            tie_symmetric=None, instances=1, trace_instances=1, read_reps=1,
        ),
    )
}

DEFAULT_LAMBDA = FitConfig().lam


@dataclass
class Instance:
    index: int
    seed: int
    z: np.ndarray
    w: np.ndarray
    y: object
    graph_path: Path
    model_path: Path
    pairs_path: Path
    csv_path: Path
    # set by the first operation on the instance, outside any timed region
    oracle_auc: float | None = None
    truth_objective: float | None = None


def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def model_json(state, objective_trace, seed: int) -> str:
    """The command line's model file format: {k, lambda, z, w, objective_trace, seed}."""
    return json.dumps({
        "k": state.k_plus,
        "lambda": state.lam,
        "z": [[int(v) for v in row] for row in state.z],
        "w": [[float(v) for v in row] for row in state.w],
        "objective_trace": [float(q) for q in objective_trace],
        "seed": seed,
    }) + "\n"


def setup(workload: Workload, seed: int, workdir: Path) -> list[Instance]:
    """Generate the run's instances and write their input files."""
    instances = []
    for index, inst_seed in enumerate(instance_seeds(seed, workload.instances)):
        z, w, y = workload.generate(inst_seed)
        stem = workdir / f"{workload.name}-{index}"
        inst = Instance(index, inst_seed, np.asarray(z, dtype=float), np.asarray(w, dtype=float),
                        y, stem.with_suffix(".graph.txt"), stem.with_suffix(".model.json"),
                        stem.with_suffix(".pairs.txt"), stem.with_suffix(".preds.csv"))
        inst.graph_path.write_text(graph.write_dense(y), encoding="utf-8")
        if workload.fit_options is None:
            truth = model.ModelState.from_factors(inst.z, inst.w, DEFAULT_LAMBDA)
            inst.model_path.write_text(model_json(truth, [], inst_seed), encoding="utf-8")
        instances.append(inst)
    return instances


@dataclass
class OpResult:
    """Timings and raw outputs of one operation: an instance's fit and read path."""

    eval_span: tuple = ()  # split + fit + scoring (fit workloads), see span()
    iters: int = 0
    report: object = None
    fit_auc: float | None = None
    train: object = None
    test: object = None
    reads: list = field(default_factory=list)  # one dict of step -> span per rep
    outputs: list = field(default_factory=list)  # one dict of raw outputs per rep
    op_span: tuple = ()  # the whole operation, see span()

    @property
    def wall_s(self) -> float:
        return self.op_span[1] - self.op_span[0]


def run_op(workload: Workload, inst: Instance) -> OpResult:
    """One closed-loop operation; every step starts when the previous returns."""
    res = OpResult()
    t_op = now()
    if workload.fit_options is not None:
        t0 = now()
        train, test = graph.split_observations(inst.y, TRAIN_FRACTION, inst.seed,
                                               workload.tie_symmetric)
        auc, report = evaluation.evaluate_split(inst.y, train, test, workload.config(inst.seed))
        res.eval_span = span(t0)
        res.iters = len(report.objective_trace)
        res.report, res.fit_auc, res.train, res.test = report, auc, train, test
        inst.model_path.write_text(
            model_json(report.final_state, report.objective_trace, inst.seed), encoding="utf-8")
    for _ in range(workload.read_reps):
        times, outputs = _read_path(workload, inst)
        res.reads.append(times)
        res.outputs.append(outputs)
    res.op_span = span(t_op)
    return res


def _read_path(workload: Workload, inst: Instance) -> tuple[dict, dict]:
    times = {}
    t = now()
    with open(inst.graph_path, encoding="utf-8") as handle:
        y = graph.load_dense_matrix(handle)
    times["load_dense_matrix"] = span(t)

    t = now()
    state, _ = cli.load_model(str(inst.model_path))
    times["load_model"] = span(t)

    t = now()
    train, test = graph.split_observations(y, TRAIN_FRACTION, inst.seed, workload.tie_symmetric)
    times["split_observations"] = span(t)

    entries = np.argwhere(test.observed)
    pairs = [tuple(p) for p in entries.tolist()]
    inst.pairs_path.write_text("".join(f"{i} {j}\n" for i, j in pairs), encoding="utf-8")
    labels = y.entries[entries[:, 0], entries[:, 1]]

    t = now()
    probs = evaluation.predict_links(state, pairs)
    times["predict_links"] = span(t)

    t = now()
    auc = evaluation.auc_from_scores(np.asarray(probs, dtype=float), labels)
    times["auc_from_scores"] = span(t)

    t = now()
    mask_text = graph.write_mask(train, test)
    times["write_mask"] = span(t)

    argv = ["predict", "--model", str(inst.model_path), "--input", str(inst.pairs_path),
            "--out", str(inst.csv_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        t = now()
        code = cli.main(argv)
        times["cli_predict"] = span(t)
    outputs = dict(y=y, state=state, train=train, test=test, pairs=pairs, labels=labels,
                   probs=probs, auc=auc, mask_lines=mask_text.count("\n"), cli_code=code)
    return times, outputs


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when all hold


def prepare_references(workload: Workload, inst: Instance, res: OpResult) -> None:
    """Generating-model AUC and objective on the instance's split (untimed, once)."""
    if inst.oracle_auc is not None:
        return
    out = res.outputs[0]
    lam = workload.config(inst.seed).lam if workload.fit_options else DEFAULT_LAMBDA
    truth = model.ModelState.from_factors(inst.z, inst.w, lam)
    entries = np.argwhere(out["test"].observed)
    scores = model.sigmoid(truth.logits[entries[:, 0], entries[:, 1]])
    inst.oracle_auc = evaluation.auc_from_scores(scores, out["labels"])
    inst.truth_objective = model.objective(inst.y, out["train"], truth)


def quality(workload: Workload, inst: Instance, res: OpResult) -> dict:
    """Per-instance quality, relative to the generating model where it has one."""
    out = res.outputs[0]
    if workload.fit_options is not None:
        report = res.report
        auc = res.fit_auc
        final_objective = report.objective_trace[-1]
        k = report.final_state.k_plus
        converged = bool(report.converged)
    else:
        auc = out["auc"]
        final_objective = model.objective(out["y"], out["train"], out["state"])
        k = out["state"].k_plus
        converged = None
    return dict(seed=inst.seed, auc=auc, oracle_auc=inst.oracle_auc,
                auc_ratio=auc / inst.oracle_auc,
                final_objective=final_objective, truth_objective=inst.truth_objective,
                objective_ratio=final_objective / inst.truth_objective,
                k=k, converged=converged, iters=res.iters)


def check_quality(workload: Workload, res: OpResult, q: dict) -> tuple[list[str], list[str]]:
    """(wrong outputs, recovery-floor misses) of one operation's fit or model."""
    if workload.fit_options is None:
        if q["auc_ratio"] != 1.0 or q["objective_ratio"] != 1.0:
            return ["the generating model does not reproduce its own AUC and objective"], []
        return [], []
    wrong = []
    trace = np.asarray(res.report.objective_trace, dtype=float)
    if trace.size == 0 or not np.isfinite(trace).all():
        wrong.append("objective trace empty or non-finite")
    elif (np.diff(trace) > 1e-9).any():
        wrong.append("objective trace increased by more than 1e-9")
    misses = []
    if workload.floors:
        if not q["auc"] >= 0.90:
            misses.append(f"held-out AUC {q['auc']:.4f} < 0.90")
        if not 2 <= q["k"] <= 6:
            misses.append(f"K={q['k']} outside [2, 6]")
    return wrong, misses


def check_read(workload: Workload, inst: Instance, res: OpResult, out: dict) -> dict[str, list[str]]:
    """Failures per read-path step for one repetition."""
    fails = {step: [] for step in READ_STEPS}
    if not np.array_equal(out["y"].entries, inst.y.entries):
        fails["load_dense_matrix"].append("loaded graph differs from the generated one")
    state = out["state"]
    if workload.fit_options is not None:
        final = res.report.final_state
        if not (np.array_equal(state.z, final.z) and np.array_equal(state.w, final.w)):
            fails["load_model"].append("model file does not reproduce the fitted z, w")
        if not (np.array_equal(out["train"].observed, res.train.observed)
                and np.array_equal(out["test"].observed, res.test.observed)):
            fails["split_observations"].append("split differs from the fit's split")
    elif not (np.array_equal(state.z, inst.z) and np.array_equal(state.w, inst.w)):
        fails["load_model"].append("model file does not reproduce the generating z, w")
    train, test = out["train"].observed, out["test"].observed
    if (train & test).any() or np.diagonal(train | test).any():
        fails["split_observations"].append("train and test overlap or include the diagonal")
    probs = np.asarray(out["probs"], dtype=float)
    if probs.shape != (len(out["pairs"]),) or not ((probs >= 0) & (probs <= 1)).all():
        fails["predict_links"].append("probabilities missing or outside [0, 1]")
    if not 0.0 <= out["auc"] <= 1.0:
        fails["auc_from_scores"].append(f"AUC {out['auc']} outside [0, 1]")
    if out["mask_lines"] != int(train.sum() + test.sum()):
        fails["write_mask"].append("mask text line count differs from the split")
    fails["cli_predict"] += _check_csv(inst.csv_path, out)
    return fails


def _check_csv(path: Path, out: dict) -> list[str]:
    if out["cli_code"] != 0:
        return [f"laftr predict exited {out['cli_code']}"]
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "i,j,probability" or len(lines) != len(out["pairs"]) + 1:
        return ["predictions CSV header or row count is wrong"]
    for (i, j), p, line in zip(out["pairs"], out["probs"], lines[1:]):
        a, b, prob = line.split(",")
        if int(a) != i or int(b) != j or float(prob) != p:
            return [f"CSV row {line!r} differs from predict_links ({i}, {j}, {p!r})"]
    return []


def fingerprint(res: OpResult) -> tuple:
    """What must repeat exactly when the same instance runs again, traced or not."""
    parts = []
    if res.report is not None:
        final = res.report.final_state
        parts += [final.z.tobytes(), final.w.tobytes(),
                  tuple(res.report.objective_trace), res.fit_auc, res.report.converged]
    for out in res.outputs:
        parts += [tuple(out["probs"]), out["auc"]]
    return tuple(parts)

