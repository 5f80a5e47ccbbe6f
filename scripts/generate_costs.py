"""Print the CPU time, traced peak and output hash of the instance generators, to compare two versions.

    python3 scripts/generate_costs.py

One line per draw: its label, N, the median CPU ms of 5 runs, the
tracemalloc peak MB of one more run, and the first 16 hex digits of the
sha256 of the z, w and y bytes. The draws are each fit workload's
generator of ``perfbench`` at its N, then ``sample_lfrm(1000, 3, 1)`` (the
``score-large`` size) and ``sample_lfrm(3000, 3, 1)``, all with seed 0.

``diff`` of two versions' outputs is the check: equal hashes mean
bit-identical draws, and the other columns show the cost. BLAS runs on one
thread, as in the benchmark.
"""

import _bench  # first: one BLAS thread, and the import path
import functools
import hashlib
import tracemalloc

import numpy as np

from laftr import generator
from perfbench import workloads

SEED = 0
RUNS = 5


def draws() -> list[tuple[str, object]]:
    """(label, zero-argument draw returning z, w, y) for each measured generator."""
    fits = [(name, functools.partial(workloads.WORKLOADS[name].generate, SEED))
            for name in _bench.FIT_WORKLOADS]
    return fits + [("sample_lfrm", functools.partial(generator.sample_lfrm, n, 3.0, 1.0, SEED))
                   for n in (1000, 3000)]


def cost_line(draw) -> tuple:
    """N, median CPU ms, traced peak MB and the z, w, y hash prefix of one draw."""
    seconds, _ = _bench.median_cpu(draw, RUNS)
    tracemalloc.start()
    z, w, y = draw()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    digest = hashlib.sha256()
    for part in (z, w, y.entries):
        digest.update(np.ascontiguousarray(part).tobytes())
    return (y.n, f"{1e3 * seconds:.2f}", f"{peak / 1e6:.1f}",
            digest.hexdigest()[:16])


def main() -> None:
    for label, draw in draws():
        print(label, *cost_line(draw), flush=True)


if __name__ == "__main__":
    main()
