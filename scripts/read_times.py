"""Print the CPU milliseconds of each text reader on the benchmark's score-large instances.

    python3 scripts/read_times.py

For each seed in 5, 7 and 110, the ``score-large`` instance is generated and
split exactly as the benchmark does, and four files are written:

- dense: ``graph.write_dense`` of the graph, read by ``load_dense_matrix``;
- edges: an ``i j`` line per edge of the graph, in row-major order, read by
  ``load_edge_list`` without ``n``, as ``laftr fit --format edges`` reads it;
- mask: ``graph.write_mask`` of the split, read by ``load_mask``;
- pairs: an ``i j`` line per held-out pair, in row-major order, the pair file
  of ``laftr predict``, read by ``load_pairs``.

Each reader runs 5 times on a text-mode handle of its file, as the package
API accepts one, with BLAS on one thread; no package code changes. Each cell
is the median CPU time (``time.process_time``) of opening and parsing. Below
the times it prints each file's line count and the first 16 hex digits of
the sha256 of each parsed result (its shape, dtype and bytes), so ``diff``
of two versions' outputs also checks that they parse alike. Timings vary by
a few percent between runs on a loaded machine.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from laftr import graph  # noqa: E402
from perfbench import workloads  # noqa: E402

SEEDS = (5, 7, 110)
CALLS = 5
READERS = {
    "dense": ("load_dense_matrix", lambda handle, n: graph.load_dense_matrix(handle)),
    "edges": ("load_edge_list", lambda handle, n: graph.load_edge_list(handle)),
    "mask": ("load_mask", lambda handle, n: graph.load_mask(handle, n)),
    "pairs": ("load_pairs", lambda handle, n: graph.load_pairs(handle, n)),
}


def instance_files(seed: int, workdir: Path) -> tuple[dict[str, Path], int]:
    """The four reader files of the seed's score-large instance, and its node count."""
    workload = workloads.WORKLOADS["score-large"]
    (inst_seed,) = workloads.instance_seeds(seed, workload.instances)
    _, _, y = workload.generate(inst_seed)
    train, test = graph.split_observations(y, workloads.TRAIN_FRACTION, inst_seed,
                                           workload.tie_symmetric)
    texts = {
        "dense": graph.write_dense(y),
        "edges": "".join(f"{i} {j}\n" for i, j in np.argwhere(y.entries).tolist()),
        "mask": graph.write_mask(train, test),
        "pairs": "".join(f"{i} {j}\n" for i, j in np.argwhere(test.observed).tolist()),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = workdir / f"{seed}.{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    return paths, y.n


def digest(result) -> str:
    """Sha256 of a parsed result's arrays: their shapes, dtypes and bytes, and any flags."""
    if isinstance(result, graph.AdjacencyMatrix):
        parts = [result.entries, np.array(result.symmetric_hint)]
    elif isinstance(result, tuple):  # load_mask's (train, test)
        parts = [mask.observed for mask in result]
    else:
        parts = [result]
    sha = hashlib.sha256()
    for a in parts:
        sha.update(f"{a.shape}{a.dtype}".encode())
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()[:16]


def measure(path: Path, read, n: int) -> tuple[float, str]:
    """Median CPU milliseconds of opening and parsing the file, and its result's digest."""
    seconds, digests = [], set()
    for _ in range(CALLS):
        start = time.process_time()
        with open(path, encoding="utf-8") as handle:
            result = read(handle, n)
        seconds.append(time.process_time() - start)
        digests.add(digest(result))
    (sha,) = digests
    return 1000 * statistics.median(seconds), sha


def main() -> None:
    results, lines = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            paths, n = instance_files(seed, Path(tmp))
            for name, (_, read) in READERS.items():
                results[seed, name] = measure(paths[name], read, n)
                lines[seed, name] = paths[name].read_bytes().count(b"\n")
    header = "".join(f"{f'seed {seed}':>18}" for seed in SEEDS)
    print(f"{'reader (cpu ms)':<24}" + header)
    for name, (reader, _) in READERS.items():
        print(f"{reader:<24}" + "".join(f"{results[seed, name][0]:>18.1f}" for seed in SEEDS))
    print()
    print(f"{'lines':<24}" + header)
    for name in READERS:
        print(f"{name:<24}" + "".join(f"{lines[seed, name]:>18}" for seed in SEEDS))
    print()
    print(f"{'sha256 of result':<24}" + header)
    for name in READERS:
        print(f"{name:<24}" + "".join(f"{results[seed, name][1]:>18}" for seed in SEEDS))


if __name__ == "__main__":
    main()
