"""Print the CPU milliseconds of each step of ``laftr predict`` on benchmark-sized instances.

    python3 scripts/predict_phases.py

The instances are the benchmark's ``score-large`` instances of seeds 5, 7 and
110, and the first ``planted-eval`` and ``ibp-grow`` instances of seed 110,
each generated and split exactly as the benchmark does. The generating model
is written as a model file and the held-out pairs (an ``i j`` line each, in
row-major order) as a pair file. ``laftr predict`` then runs 9 times in this
process, with BLAS on one thread. The functions it calls are wrapped from
outside, as ``scripts/fit_phases.py`` does, and no package code changes. Each
cell is the median CPU time (``time.process_time``) of one step over the 9
calls:

- parser: from the start of ``cli.main`` to the start of ``load_model``, the
  argument parsing;
- load_model: ``cli.load_model``, the model file;
- load_pairs: ``graph.load_pairs``, the pair file;
- probabilities: ``distinct_link_probabilities`` as ``cli`` calls it, the
  distinct pattern-pair probabilities and each pair's index into them;
- CSV layout: ``graph.write_predictions``, the CSV text;
- write: ``cli._atomic_write``, the file write and rename;
- other: the rest of ``cli.main`` (the summary line);
- total: ``cli.main``.

Below the steps it prints each instance's pair count and its number of
distinct probabilities. Run it on two versions and compare the tables;
timings vary by a few percent between runs on a loaded machine.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from laftr import cli, graph, model  # noqa: E402
from perfbench import workloads  # noqa: E402

# (workload, seed) of each column
INSTANCES = (("score-large", 5), ("score-large", 7), ("score-large", 110),
             ("planted-eval", 110), ("ibp-grow", 110))
CALLS = 9
STEPS = ("load_model", "load_pairs", "probabilities", "CSV layout", "write")
ROWS = ("parser", *STEPS, "other", "total")


class Steps:
    """CPU start and seconds of each wrapped step, one entry per call, and the last distinct count."""

    def __init__(self):
        self.starts = defaultdict(list)
        self.seconds = defaultdict(list)
        self.distinct = 0

    def wrap(self, fn, step):
        def timed(*args, **kwargs):
            start = time.process_time()
            self.starts[step].append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[step].append(time.process_time() - start)
        return timed

    def install(self) -> None:
        """Wrap every step where ``cli`` looks it up at call time."""
        cli.load_model = self.wrap(cli.load_model, "load_model")
        graph.load_pairs = self.wrap(graph.load_pairs, "load_pairs")
        graph.write_predictions = self.wrap(graph.write_predictions, "CSV layout")
        cli._atomic_write = self.wrap(cli._atomic_write, "write")
        probabilities = self.wrap(cli.distinct_link_probabilities, "probabilities")

        def counted(*args, **kwargs):
            values, index = probabilities(*args, **kwargs)
            self.distinct = values.size
            return values, index

        cli.distinct_link_probabilities = counted


def instance_files(workload_name: str, seed: int, workdir: Path) -> tuple[list[str], int]:
    """The ``laftr predict`` arguments for the seed's first instance of the workload, with its
    generating model and held-out pairs, and its pair count."""
    workload = workloads.WORKLOADS[workload_name]
    inst_seed = workloads.instance_seeds(seed, workload.instances)[0]
    z, w, y = workload.generate(inst_seed)
    _, test = graph.split_observations(y, workloads.TRAIN_FRACTION, inst_seed,
                                       workload.tie_symmetric)
    truth = model.ModelState.from_factors(np.asarray(z, dtype=float), np.asarray(w, dtype=float),
                                          workloads.DEFAULT_LAMBDA)
    model_path, pairs_path, csv_path = (workdir / f"{workload_name}-{seed}.{name}"
                                        for name in ("model.json", "pairs.txt", "preds.csv"))
    model_path.write_text(workloads.model_json(truth, [], inst_seed), encoding="utf-8")
    pairs = np.argwhere(test.observed)
    pairs_path.write_text("".join(f"{i} {j}\n" for i, j in pairs.tolist()), encoding="utf-8")
    argv = ["predict", "--model", str(model_path), "--input", str(pairs_path),
            "--out", str(csv_path)]
    return argv, len(pairs)


def measure(steps: Steps, argv: list[str]) -> dict[str, float]:
    """Median CPU milliseconds of the parser, of each step, of the rest and of the whole command."""
    steps.starts.clear()
    steps.seconds.clear()
    starts, totals = [], []
    for _ in range(CALLS):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.process_time()
            code = cli.main(argv)
            totals.append(time.process_time() - start)
        starts.append(start)
        if code != 0:
            raise SystemExit(f"laftr predict exited {code}")
    parser = [first - start for first, start in zip(steps.starts["load_model"], starts)]
    runs = list(zip(parser, *(steps.seconds[step] for step in STEPS)))
    medians = {step: statistics.median(steps.seconds[step]) for step in STEPS}
    medians["parser"] = statistics.median(parser)
    medians["other"] = statistics.median(total - sum(run) for total, run in zip(totals, runs))
    medians["total"] = statistics.median(totals)
    return {step: 1000 * s for step, s in medians.items()}


def main() -> None:
    steps = Steps()
    steps.install()
    results, sizes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in INSTANCES:
            argv, n_pairs = instance_files(*key, Path(tmp))
            results[key] = measure(steps, argv)
            sizes[key] = (n_pairs, steps.distinct)
    print(f"{'step (cpu ms)':<24}" + "".join(f"{f'{name} {seed}':>18}" for name, seed in INSTANCES))
    for step in ROWS:
        print(f"{step:<24}" + "".join(f"{results[key][step]:>18.2f}" for key in INSTANCES))
    print()
    print(f"{'pairs':<24}" + "".join(f"{sizes[key][0]:>18}" for key in INSTANCES))
    print(f"{'distinct probabilities':<24}" + "".join(f"{sizes[key][1]:>18}" for key in INSTANCES))


if __name__ == "__main__":
    main()
