"""Print the CPU milliseconds of each step of ``laftr predict`` on the benchmark's score-large instances.

    python3 scripts/predict_phases.py

For each seed in 5, 7 and 110, the ``score-large`` instance is generated and
split exactly as the benchmark does; the generating model is written as a
model file and the held-out pairs (an ``i j`` line each, in row-major order)
as a pair file. ``laftr predict`` then runs 9 times in this process, with
BLAS on one thread. The functions it calls are wrapped from outside, as
``scripts/fit_phases.py`` does, and no package code changes. Each cell is the
median CPU time (``time.process_time``) of one step over the 9 calls:

- load_model: ``cli.load_model``, the model file;
- load_pairs: ``graph.load_pairs``, the pair file;
- probabilities: ``distinct_link_probabilities`` as ``cli`` calls it, the
  distinct pattern-pair probabilities and each pair's index into them;
- CSV layout: ``graph.write_predictions``, the CSV text;
- write: ``cli._atomic_write``, the file write and rename;
- other: the rest of ``cli.main`` (argument parsing, the summary line);
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

SEEDS = (5, 7, 110)
CALLS = 9
STEPS = ("load_model", "load_pairs", "probabilities", "CSV layout", "write")


class Steps:
    """CPU seconds of each wrapped step, one entry per call, and the last distinct count."""

    def __init__(self):
        self.seconds = defaultdict(list)
        self.distinct = 0

    def wrap(self, fn, step):
        def timed(*args, **kwargs):
            start = time.process_time()
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


def instance_files(seed: int, workdir: Path) -> tuple[list[str], int]:
    """The ``laftr predict`` arguments for the seed's score-large instance, and its pair count."""
    workload = workloads.WORKLOADS["score-large"]
    (inst_seed,) = workloads.instance_seeds(seed, workload.instances)
    z, w, y = workload.generate(inst_seed)
    _, test = graph.split_observations(y, workloads.TRAIN_FRACTION, inst_seed,
                                       workload.tie_symmetric)
    truth = model.ModelState.from_factors(np.asarray(z, dtype=float), np.asarray(w, dtype=float),
                                          workloads.DEFAULT_LAMBDA)
    model_path, pairs_path, csv_path = (workdir / f"{seed}.{name}"
                                        for name in ("model.json", "pairs.txt", "preds.csv"))
    model_path.write_text(workloads.model_json(truth, [], inst_seed), encoding="utf-8")
    pairs = np.argwhere(test.observed)
    pairs_path.write_text("".join(f"{i} {j}\n" for i, j in pairs.tolist()), encoding="utf-8")
    argv = ["predict", "--model", str(model_path), "--input", str(pairs_path),
            "--out", str(csv_path)]
    return argv, len(pairs)


def measure(steps: Steps, argv: list[str]) -> dict[str, float]:
    """Median CPU milliseconds of each step, of the rest and of the whole command."""
    steps.seconds.clear()
    totals = []
    for _ in range(CALLS):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.process_time()
            code = cli.main(argv)
            totals.append(time.process_time() - start)
        if code != 0:
            raise SystemExit(f"laftr predict exited {code}")
    runs = list(zip(*(steps.seconds[step] for step in STEPS)))
    medians = {step: statistics.median(steps.seconds[step]) for step in STEPS}
    medians["other"] = statistics.median(total - sum(run) for total, run in zip(totals, runs))
    medians["total"] = statistics.median(totals)
    return {step: 1000 * s for step, s in medians.items()}


def main() -> None:
    steps = Steps()
    steps.install()
    results, sizes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            argv, n_pairs = instance_files(seed, Path(tmp))
            results[seed] = measure(steps, argv)
            sizes[seed] = (n_pairs, steps.distinct)
    print(f"{'step (cpu ms)':<24}" + "".join(f"{f'seed {seed}':>12}" for seed in SEEDS))
    for step in (*STEPS, "other", "total"):
        print(f"{step:<24}" + "".join(f"{results[seed][step]:>12.1f}" for seed in SEEDS))
    print()
    print(f"{'pairs':<24}" + "".join(f"{sizes[seed][0]:>12}" for seed in SEEDS))
    print(f"{'distinct probabilities':<24}" + "".join(f"{sizes[seed][1]:>12}" for seed in SEEDS))


if __name__ == "__main__":
    main()
