"""Print the sha256 of each benchmark instance's text files, to compare two I/O versions.

    python3 scripts/io_hashes.py

For every workload of ``perfbench`` and every seed in 100..109, each
instance is generated and split exactly as the benchmark does. One line per
instance: workload, seed, instance index, then the sha256 of

- ``graph.write_dense`` of the generated graph,
- ``graph.write_mask`` of its split, and
- the CSV that ``laftr predict`` writes for its held-out pairs (an ``i j``
  line each, in row-major order), scored with the generating model,

and last the ``repr`` of that model's held-out AUC from
``evaluation.auc_from_scores``.

``diff`` of two versions' outputs is the check: equal lines mean
byte-identical files and bit-identical AUCs. BLAS runs on one thread, as in
the benchmark.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from laftr import cli, evaluation, graph, model  # noqa: E402
from perfbench import workloads  # noqa: E402

SEEDS = range(100, 110)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def io_line(workload, inst_seed: int, workdir: Path) -> tuple[str, str, str, str]:
    """The hashes of one instance's dense matrix, mask file and predictions CSV, and its AUC."""
    z, w, y = workload.generate(inst_seed)
    train, test = graph.split_observations(y, workloads.TRAIN_FRACTION, inst_seed,
                                           workload.tie_symmetric)
    truth = model.ModelState.from_factors(np.asarray(z, dtype=float), np.asarray(w, dtype=float),
                                          workloads.DEFAULT_LAMBDA)
    model_path, pairs_path, csv_path = (workdir / name for name in ("m.json", "p.txt", "p.csv"))
    model_path.write_text(workloads.model_json(truth, [], inst_seed), encoding="utf-8")
    pairs = np.argwhere(test.observed)
    pairs_path.write_text("".join(f"{i} {j}\n" for i, j in pairs.tolist()), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["predict", "--model", str(model_path), "--input", str(pairs_path),
                         "--out", str(csv_path)])
    if code != 0:
        raise SystemExit(f"laftr predict exited {code} on instance {inst_seed}")
    rows, cols = pairs.T
    auc = evaluation.auc_from_scores(model.link_probability(truth, rows, cols), y.entries[rows, cols])
    return (_sha256(graph.write_dense(y).encode()),
            _sha256(graph.write_mask(train, test).encode()),
            _sha256(csv_path.read_bytes()),
            repr(auc))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for seed in SEEDS:
                inst_seeds = workloads.instance_seeds(seed, workload.instances)
                for index, inst_seed in enumerate(inst_seeds):
                    print(name, seed, index, *io_line(workload, inst_seed, Path(tmp)), flush=True)


if __name__ == "__main__":
    main()
