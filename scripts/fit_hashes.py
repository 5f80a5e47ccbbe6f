"""Print one sha256 per benchmark fit, to compare two versions of the fitter.

    python3 scripts/fit_hashes.py

For every fit workload of ``perfbench`` and every seed in 100..109, the
60 fits of the benchmark's baseline seeds, each instance is generated,
split and fitted through ``evaluate_split`` exactly as the benchmark does.
One line per fit: workload, seed, instance index and the sha256 of the
final Z and W, the objective trace, the held-out AUC, ``converged`` and the
birth flags. Two versions that take the same path print the same lines, so
``diff`` of their outputs is the check. BLAS runs on one thread, as in the
benchmark, because held-out AUC can depend on the thread count.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from laftr import evaluation, graph  # noqa: E402
from perfbench import workloads  # noqa: E402

FIT_WORKLOADS = [name for name, w in workloads.WORKLOADS.items() if w.fit_options is not None]


def fit_hash(workload, inst_seed: int) -> str:
    _, _, y = workload.generate(inst_seed)
    train, test = graph.split_observations(y, workloads.TRAIN_FRACTION, inst_seed,
                                           workload.tie_symmetric)
    auc, report = evaluation.evaluate_split(y, train, test, workload.config(inst_seed))
    digest = hashlib.sha256()
    for part in (report.final_state.z, report.final_state.w,
                 np.asarray(report.objective_trace, dtype=float), np.float64(auc),
                 np.asarray([report.converged, *report.accepted_births], dtype=bool)):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


SEEDS = range(100, 110)


def main() -> None:
    for name in FIT_WORKLOADS:
        workload = workloads.WORKLOADS[name]
        for seed in SEEDS:
            for index, inst_seed in enumerate(workloads.instance_seeds(seed, workload.instances)):
                print(name, seed, index, fit_hash(workload, inst_seed), flush=True)


if __name__ == "__main__":
    main()
