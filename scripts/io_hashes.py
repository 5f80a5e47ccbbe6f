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
the benchmark (``_bench``).
"""

import _bench  # first: one BLAS thread, and the import path
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from laftr import cli, evaluation, graph, model
from perfbench import workloads

SEEDS = range(100, 110)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def io_line(workload, inst_seed: int, workdir: Path) -> tuple[str, str, str, str]:
    """The hashes of one instance's dense matrix, mask file and predictions CSV, and its AUC."""
    z, w, y, train, test = _bench.instance(workload, inst_seed)
    argv, truth, pairs = _bench.predict_files(z, w, test, inst_seed, workdir / "instance")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"laftr predict exited {code} on instance {inst_seed}")
    rows, cols = pairs.T
    auc = evaluation.auc_from_scores(model.link_probability(truth, rows, cols), y.entries[rows, cols])
    return (_sha256(graph.write_dense(y).encode()),
            _sha256(graph.write_mask(train, test).encode()),
            _sha256(Path(argv[-1]).read_bytes()),
            repr(auc))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for seed, index, inst_seed in _bench.instance_seeds(workload, SEEDS):
                print(name, seed, index, *io_line(workload, inst_seed, Path(tmp)), flush=True)


if __name__ == "__main__":
    main()
