"""Print the CPU seconds and calls of each fit phase, summed over the benchmark's seed 100-102 fits.

    python3 scripts/fit_phases.py

For every fit workload of ``perfbench`` and every seed in 100..102, each
instance is generated, split and fitted through ``evaluate_split`` exactly
as the benchmark does, with BLAS on one thread. The package's functions are
wrapped from outside, as ``perfbench/spans.py`` does, and no package code
changes. Each CPU second (``time.process_time``) goes to the innermost
phase running, so the rows add up to the total:

- main sweep: ``_sweep`` to a fixed point called by ``fit``;
- convergence scan: ``_sweep`` of the copy of the state that ``fit``
  sweeps before it declares convergence (``fit`` copies a state for
  nothing else, so the wrapped ``ModelState.copy`` marks the copies);
- candidate sweep and candidate W step: ``_sweep`` and ``optimize_w``
  inside ``propose_feature``, in every outer iteration but the one that
  ended a converged fit; end candidate sweep and end candidate W step:
  the same in that last iteration, whose births were all rejected (``fit``
  is given an ``on_iteration`` callback that marks where each iteration
  ends); birth other: the rest of ``propose_feature`` (the column draw and
  the prune after the candidate's sweep);
- W step: ``optimize_w`` called by ``fit``;
- pattern statistics: building ``_PairStats``, wherever it happens;
- objective: ``objective`` outside its pattern statistics;
- fit other: the rest of ``fit`` (the prune after its sweep, births'
  bookkeeping);
- scoring: the rest of ``evaluate_split`` (held-out scores and AUC).

Below the phases it prints four counts of the sweep's delta table
(``optimizer._DeltaTable``), with ``built/used`` for the two caches:

- kernel calls: ``scores`` calls;
- move tables: ``_move_table`` builds against ``move`` calls (moves made);
- screen terms: ``_partner_terms`` calls of the table build, one per
  pattern, against table builds;
- kernel terms: the other ``_partner_terms`` calls, the builds of the
  kernel's cache, against kernel calls.

Last it prints the prune's traffic: the ``prune_empty_features`` calls
that removed a column against all its calls.

Run it on two versions and compare the tables; timings vary by a few
percent between runs on a loaded machine.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from laftr import evaluation, graph, model, optimizer  # noqa: E402
from perfbench import workloads  # noqa: E402

FIT_WORKLOADS = [name for name, w in workloads.WORKLOADS.items() if w.fit_options is not None]
SEEDS = range(100, 103)
COUNTED = ("scores", "move", "_move_table", "_partner_terms")
PHASES = ("main sweep", "convergence scan", "candidate sweep", "candidate W step",
          "end candidate sweep", "end candidate W step", "birth other", "W step",
          "pattern statistics", "objective", "fit other", "scoring")
# the candidate phases, and where those of the iteration that ended a converged fit go
ENDING = {"candidate sweep": "end candidate sweep", "candidate W step": "end candidate W step"}
LABEL = 22


class Phases:
    """Exclusive CPU seconds and call counts per phase, kept on a stack of running phases."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.stack: list[str] = []
        self.mark = 0.0

    def wrap(self, fn, phase_of, root=False):
        """fn timed as the phase ``phase_of(running phases, *args, **kwargs)`` names.

        Only a root phase starts a stack; outside one (generating an
        instance, say) fn runs untimed.
        """
        def timed(*args, **kwargs):
            if not (root or self.stack):
                return fn(*args, **kwargs)
            phase = phase_of(self.stack, *args, **kwargs)
            self._switch(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self._switch(None)
        return timed

    def count(self, fn, name):
        """fn, counting its calls under ``name``."""
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def candidate_totals(self) -> dict:
        """The candidate phases' seconds and calls so far."""
        return {phase: (self.seconds[phase], self.calls[phase]) for phase in ENDING}

    def move_ending(self, before: dict, after: dict) -> None:
        """Move the candidate seconds and calls between two candidate_totals to the end rows."""
        for phase, ending in ENDING.items():
            seconds = after[phase][0] - before[phase][0]
            calls = after[phase][1] - before[phase][1]
            self.seconds[phase] -= seconds
            self.seconds[ending] += seconds
            self.calls[phase] -= calls
            self.calls[ending] += calls

    def _switch(self, entering):
        now = time.process_time()
        if self.stack:
            self.seconds[self.stack[-1]] += now - self.mark
        if entering is None:
            self.stack.pop()
        else:
            self.stack.append(entering)
            self.calls[entering] += 1
        self.mark = now


def _sweep_phase(stack, _idx, state):
    if "birth other" in stack:
        return "candidate sweep"
    return "convergence scan" if getattr(state, "convergence_scan", False) else "main sweep"


def _marked(copy):
    def marked(state):
        out = copy(state)
        out.convergence_scan = True
        return out
    return marked


def _counted_prune(phases: Phases, prune):
    """prune, counting its calls and those that removed a column."""
    def counted(state):
        k_plus = state.k_plus
        out = prune(state)
        phases.counts["prune"] += 1
        phases.counts["prune removed"] += out.k_plus < k_plus
        return out
    return counted


def _ending_iteration_apart(phases: Phases, fit):
    """fit, moving the candidate phases of the iteration that ended a converged fit to the end rows.

    fit calls on_iteration at the end of each outer iteration, after its
    convergence scan, so the last iteration's candidates are those timed
    between the last two calls.
    """
    def marked(*args, on_iteration=None, **kwargs):
        marks = [phases.candidate_totals()]

        def mark(*iteration):
            marks.append(phases.candidate_totals())
            if on_iteration is not None:
                on_iteration(*iteration)

        report = fit(*args, on_iteration=mark, **kwargs)
        if report.converged:
            phases.move_ending(marks[-2], marks[-1])
        return report
    return marked


def _install(phases: Phases) -> None:
    """Wrap every phase's function where the package calls it from."""
    def fixed(name):
        return lambda *_args, **_kwargs: name

    evaluation.fit = _ending_iteration_apart(phases, evaluation.fit)
    targets = [
        (optimizer, "_sweep", _sweep_phase),
        (optimizer, "optimize_w",
         lambda stack, *a, **k: "candidate W step" if "birth other" in stack else "W step"),
        (optimizer, "propose_feature", fixed("birth other")),
        (optimizer, "objective", fixed("objective")),
        (evaluation, "fit", fixed("fit other")),
        (model._PairStats, "__init__", fixed("pattern statistics")),
    ]
    for owner, name, phase_of in targets:
        setattr(owner, name, phases.wrap(getattr(owner, name), phase_of))
    model.ModelState.copy = _marked(model.ModelState.copy)
    optimizer.prune_empty_features = _counted_prune(phases, optimizer.prune_empty_features)
    evaluation.evaluate_split = phases.wrap(evaluation.evaluate_split, fixed("scoring"), root=True)
    for name in COUNTED:
        setattr(optimizer._DeltaTable, name, phases.count(getattr(optimizer._DeltaTable, name), name))
    optimizer._DeltaTable.__init__ = _build_terms_apart(phases, optimizer._DeltaTable.__init__)


def _build_terms_apart(phases: Phases, build):
    """The table build, moving its ``_partner_terms`` calls to a count of their own."""
    def counted(*args, **kwargs):
        before = phases.counts["_partner_terms"]
        build(*args, **kwargs)
        phases.counts["build terms"] += phases.counts["_partner_terms"] - before
        phases.counts["_partner_terms"] = before
        phases.counts["builds"] += 1
    return counted


def measure(phases: Phases, workload) -> tuple[dict, dict, dict]:
    """Seconds and calls per phase, and the table's counts, over the workload's seed 100..102 fits."""
    phases.seconds.clear()
    phases.calls.clear()
    phases.counts.clear()
    for seed in SEEDS:
        for inst_seed in workloads.instance_seeds(seed, workload.instances):
            _, _, y = workload.generate(inst_seed)
            train, test = graph.split_observations(y, workloads.TRAIN_FRACTION, inst_seed,
                                                   workload.tie_symmetric)
            evaluation.evaluate_split(y, train, test, workload.config(inst_seed))
    return dict(phases.seconds), dict(phases.calls), dict(phases.counts)


def main() -> None:
    phases = Phases()
    _install(phases)
    results = {name: measure(phases, workloads.WORKLOADS[name]) for name in FIT_WORKLOADS}
    print(f"{'phase':<{LABEL}}" + "".join(f"{name + ' cpu_s':>20}{'calls':>8}" for name in results))
    for phase in (*PHASES, "total"):
        row = f"{phase:<{LABEL}}"
        for seconds, calls, _ in results.values():
            if phase == "total":
                row += f"{sum(seconds.values()):>20.3f}{'':>8}"
            else:
                row += f"{seconds.get(phase, 0.0):>20.3f}{calls.get(phase, 0):>8}"
        print(row)
    print()
    print(f"{'delta table':<{LABEL}}" + "".join(f"{name + ' built/used':>28}" for name in results))
    for label, built, used in (("kernel calls", "scores", None), ("move tables", "_move_table", "move"),
                               ("screen terms", "build terms", "builds"),
                               ("kernel terms", "_partner_terms", "scores")):
        row = f"{label:<{LABEL}}"
        for *_, counts in results.values():
            cell = str(counts.get(built, 0))
            row += f"{cell + (f'/{counts.get(used, 0)}' if used else ''):>28}"
        print(row)
    print()
    print(f"{'prune removed/calls':<{LABEL}}" + "".join(
        f"{counts.get('prune removed', 0)}/{counts.get('prune', 0)}".rjust(28)
        for *_, counts in results.values()))


if __name__ == "__main__":
    main()
