"""Print two sha256 and the outcome of each benchmark fit, to compare two versions of the fitter.

    python3 scripts/fit_hashes.py

For every fit workload of ``perfbench`` and every seed in 100..109, the
60 fits of the benchmark's baseline seeds, each instance is generated,
split and fitted through ``evaluate_split`` exactly as the benchmark does.
One line per fit: workload, seed, instance index, two hashes, then the
final K, ``converged``, the number of outer iterations and the held-out
AUC. The hashes are:

- the full hash, of the final Z and W, the objective trace, the held-out
  AUC, ``converged`` and the birth flags: equal lines mean bit-identical
  results;
- the path hash, of the final Z, the K trace, the birth flags and
  ``converged`` only: equal lines mean the same greedy path, even when a
  change moves the last bits of W, the objective or the AUC.

``diff`` of two versions' outputs is the check; the last four columns show
the floor misses and convergence of the 60 fits without a second run. BLAS
runs on one thread, as in the benchmark (``_bench``).
"""

import _bench  # first: one BLAS thread, and the import path
import hashlib

import numpy as np

from laftr import evaluation
from perfbench import workloads

SEEDS = range(100, 110)


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def fit_line(workload, inst_seed: int) -> tuple:
    """The full hash, the path hash, K, converged, iterations and held-out AUC of one fit."""
    _, _, y, train, test = _bench.instance(workload, inst_seed)
    auc, report = evaluation.evaluate_split(y, train, test, workload.config(inst_seed))
    z = report.final_state.z
    flags = np.asarray([report.converged, *report.accepted_births], dtype=bool)
    return (_sha256(z, report.final_state.w, np.asarray(report.objective_trace, dtype=float),
                    np.float64(auc), flags),
            _sha256(z, np.asarray(report.k_trace, dtype=np.int64), flags),
            report.final_state.k_plus, report.converged, len(report.objective_trace), f"{auc:.6f}")


def main() -> None:
    for name in _bench.FIT_WORKLOADS:
        workload = workloads.WORKLOADS[name]
        for seed, index, inst_seed in _bench.instance_seeds(workload, SEEDS):
            print(name, seed, index, *fit_line(workload, inst_seed), flush=True)


if __name__ == "__main__":
    main()
