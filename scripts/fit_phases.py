"""Print the wall seconds and calls of each fit phase, summed over the benchmark's seed 100-102 fits.

    python3 scripts/fit_phases.py

For every fit workload of ``perfbench`` and every seed in 100..102, each
instance is generated, split and fitted through ``evaluate_split`` exactly
as the benchmark does, with BLAS on one thread (``_bench``). The phase rows
are read from the fits' records: each ``FitReport.phase_seconds`` entry
splits its iteration's ``elapsed`` into wall seconds by phase (see
``optimizer.FitReport``), and the rows sum them over the fits. A phase's
calls count once per iteration that ran it, and once per birth proposal
for the birth rows (``birth other`` and the ``candidate`` rows). The birth
rows of the iteration that ended a converged fit, whose births were all
rejected, go to the ``end`` rows. Last come

- outside iterations: the wall seconds of ``evaluate_split`` minus the
  fit's ``elapsed``, that is the fit's set-up before its first iteration
  (the initial draw, the mask index, the start's objective) and the
  held-out scoring;
- total: the wall seconds of ``evaluate_split``,

so the rows add up to the total.

Below the phases it prints four counts of the sweep's delta table
(``optimizer._DeltaTable``), with ``built/used`` for the two caches:

- kernel calls: ``scores`` calls;
- move tables: ``_move_table`` builds against ``move`` calls (moves made);
- screen terms: ``_partner_terms`` calls of the table build, one per
  pattern, against table builds;
- kernel terms: the other ``_partner_terms`` calls, the builds of the
  kernel's cache, against kernel calls.

Last it prints the prune's traffic: the ``prune_empty_features`` calls
that removed a column against all its calls. These counts come from
wrappers installed on the table's methods and on the prune, which only
count; no timing wraps a package function.

Run it on two versions and compare the tables; timings vary by a few
percent between runs on a loaded machine.
"""

import _bench  # first: one BLAS thread, and the import path
import math
import time
from collections import Counter, defaultdict

from laftr import evaluation, optimizer
from perfbench import workloads

SEEDS = range(100, 103)
BIRTH = ("birth other", "candidate statistics", "candidate W step", "candidate sweep",
         "candidate objective")
PHASES = ("sweep", "statistics", "W step", "objective", *BIRTH,
          *(f"end {phase}" for phase in BIRTH), "convergence scan")
COUNTED = ("scores", "move", "_move_table", "_partner_terms")
LABEL = 26


def add_report(seconds: defaultdict, calls: Counter, report, wall: float) -> None:
    """Add one fit's records, and ``wall``, its ``evaluate_split`` seconds, to the sums."""
    ending = len(report.phase_seconds) - 1 if report.converged else None
    for i, (phases, proposed) in enumerate(zip(report.phase_seconds, report.births_proposed)):
        for phase, phase_seconds in phases.items():
            row = f"end {phase}" if i == ending and phase in BIRTH else phase
            seconds[row] += phase_seconds
            calls[row] += proposed if phase in BIRTH else 1
    seconds["outside iterations"] += wall - math.fsum(report.elapsed)
    seconds["total"] += wall


def count_calls(counts: Counter) -> None:
    """Wrap the delta table's methods and the prune where fit calls them, counting calls only."""
    table = optimizer._DeltaTable

    def counted(fn, name):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in COUNTED:
        setattr(table, name, counted(getattr(table, name), name))
    build, prune = table.__init__, optimizer.prune_empty_features

    def counted_build(*args, **kwargs):
        # the build's _partner_terms calls, one per pattern, get a count of their own
        before = counts["_partner_terms"]
        build(*args, **kwargs)
        counts["build terms"] += counts["_partner_terms"] - before
        counts["_partner_terms"] = before
        counts["builds"] += 1

    def counted_prune(state):
        k_plus = state.k_plus
        out = prune(state)
        counts["prune"] += 1
        counts["prune removed"] += out.k_plus < k_plus
        return out

    table.__init__ = counted_build
    optimizer.prune_empty_features = counted_prune


def measure(workload, counts: Counter) -> tuple[dict, dict, dict]:
    """Seconds and calls per row, and the counts, over the workload's seed 100..102 fits."""
    seconds, calls = defaultdict(float), Counter()
    counts.clear()
    for _, _, inst_seed in _bench.instance_seeds(workload, SEEDS):
        _, _, y, train, test = _bench.instance(workload, inst_seed)
        start = time.perf_counter()
        _, report = evaluation.evaluate_split(y, train, test, workload.config(inst_seed))
        add_report(seconds, calls, report, time.perf_counter() - start)
    return dict(seconds), dict(calls), dict(counts)


def main() -> None:
    counts = Counter()
    count_calls(counts)
    results = {name: measure(workloads.WORKLOADS[name], counts) for name in _bench.FIT_WORKLOADS}
    print(f"{'phase':<{LABEL}}" + "".join(f"{name + ' wall_s':>20}{'calls':>8}" for name in results))
    for phase in (*PHASES, "outside iterations", "total"):
        row = f"{phase:<{LABEL}}"
        for seconds, calls, _ in results.values():
            cell = calls.get(phase, 0) if phase in PHASES else ""
            row += f"{seconds.get(phase, 0.0):>20.3f}{cell:>8}"
        print(row)
    print()
    print(f"{'delta table':<{LABEL}}" + "".join(f"{name + ' built/used':>28}" for name in results))
    for label, built, used in (("kernel calls", "scores", None), ("move tables", "_move_table", "move"),
                               ("screen terms", "build terms", "builds"),
                               ("kernel terms", "_partner_terms", "scores")):
        row = f"{label:<{LABEL}}"
        for *_, table_counts in results.values():
            cell = str(table_counts.get(built, 0))
            row += f"{cell + (f'/{table_counts.get(used, 0)}' if used else ''):>28}"
        print(row)
    print()
    print(f"{'prune removed/calls':<{LABEL}}" + "".join(
        f"{table_counts.get('prune removed', 0)}/{table_counts.get('prune', 0)}".rjust(28)
        for *_, table_counts in results.values()))


if __name__ == "__main__":
    main()
