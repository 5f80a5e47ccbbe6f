"""What the scripts share: one BLAS thread, the import path and the benchmark's instances.

Each script imports this module first, before numpy or laftr: it pins BLAS
to one thread, as the benchmark does, and puts ``src`` and the repository
root on the import path. Running ``python3 scripts/<name>.py`` puts this
directory on the path, so ``import _bench`` finds it.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from laftr import graph, model  # noqa: E402
from perfbench import workloads  # noqa: E402

FIT_WORKLOADS = [name for name, w in workloads.WORKLOADS.items() if w.fit_options is not None]


def instance_seeds(workload, seeds):
    """(seed, instance index, instance seed) of every instance of each benchmark seed."""
    for seed in seeds:
        for index, inst_seed in enumerate(workloads.instance_seeds(seed, workload.instances)):
            yield seed, index, inst_seed


def instance(workload, inst_seed: int) -> tuple:
    """(z, w, y, train, test): the instance generated and split exactly as the benchmark does."""
    z, w, y = workload.generate(inst_seed)
    train, test = graph.split_observations(y, workloads.TRAIN_FRACTION, inst_seed,
                                           workload.tie_symmetric)
    return z, w, y, train, test


def predict_files(z, w, test, inst_seed: int, stem: Path) -> tuple:
    """The ``laftr predict`` argv of an instance, its generating model and its held-out pairs.

    Writes ``<stem>.model.json``, the generating Z and W at the default
    lambda, and ``<stem>.pairs.txt``, an ``i j`` line per held-out pair in
    row-major order; the argv writes the predictions to ``<stem>.preds.csv``.
    """
    truth = model.ModelState.from_factors(np.asarray(z, dtype=float), np.asarray(w, dtype=float),
                                          workloads.DEFAULT_LAMBDA)
    model_path, pairs_path, csv_path = (Path(f"{stem}.{name}")
                                        for name in ("model.json", "pairs.txt", "preds.csv"))
    model_path.write_text(workloads.model_json(truth, [], inst_seed), encoding="utf-8")
    pairs = np.argwhere(test.observed)
    pairs_path.write_text("".join(f"{i} {j}\n" for i, j in pairs.tolist()), encoding="utf-8")
    argv = ["predict", "--model", str(model_path), "--input", str(pairs_path),
            "--out", str(csv_path)]
    return argv, truth, pairs


def median_cpu(call, runs: int) -> tuple[float, list]:
    """The median CPU seconds (``time.process_time``) of ``runs`` calls of ``call()``, and their results."""
    seconds, results = [], []
    for _ in range(runs):
        start = time.process_time()
        results.append(call())
        seconds.append(time.process_time() - start)
    return statistics.median(seconds), results
