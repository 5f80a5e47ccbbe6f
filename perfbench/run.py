"""laftr benchmark: one closed-loop client in one process, on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Details of the run (environment, per-operation timings, per-instance
quality, failures, and with ``--trace 1`` the spans) go to ``.bench_out/``.
See perfbench/README.md for what each workload and metric means.
"""

import os

# Fixed before numpy loads: BLAS and OpenMP pools are sized at import.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 50
# no new operation starts after this, whatever --seconds says
MAX_RUN_SECONDS = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: build.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


class Run:
    """Counts operations and failures, and runs the checks on each result."""

    def __init__(self, wl, workload):
        self.wl = wl
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.fingerprints: dict[int, tuple] = {}
        self.quality: dict[int, dict] = {}

    def ops_per_result(self) -> int:
        return (self.workload.fit_options is not None) + \
            self.workload.read_reps * len(self.wl.READ_STEPS)

    def attempt(self, inst, traced=None):
        """Run one operation (optionally under a tracer); None if it raised."""
        try:
            if traced is None:
                return self.wl.run_op(self.workload, inst)
            with traced:
                return self.wl.run_op(self.workload, inst)
        except Exception:  # a failing operation is counted, not fatal
            n = self.ops_per_result()
            self.attempted += n
            self.failed += n
            self.correct = False
            self.problems.append(f"instance {inst.index}: {traceback.format_exc()}")
            return None

    def check(self, inst, res, label: str) -> None:
        wl = self.wl
        self.attempted += self.ops_per_result()
        wl.prepare_references(self.workload, inst, res)
        q = wl.quality(self.workload, inst, res)
        wrong, misses = wl.check_quality(self.workload, res, q)
        # a floor miss is a valid local minimum that missed the recovery
        # target: reported (stderr, details, floor_miss_frac), not a failure
        if wrong:
            self.failed += 1
            self.correct = False
        self.problems += [f"instance {inst.index} {label}: {m}" for m in wrong + misses]
        for out in res.outputs:
            for step, fails in wl.check_read(self.workload, inst, res, out).items():
                if fails:
                    self.failed += 1
                    self.correct = False
                    self.problems += [f"instance {inst.index} {label} {step}: {m}" for m in fails]
        fp = wl.fingerprint(res)
        if inst.index in self.fingerprints:
            if fp != self.fingerprints[inst.index]:
                self.failed += 1
                self.correct = False
                self.problems.append(f"instance {inst.index} {label}: result differs from its first run")
        else:
            self.fingerprints[inst.index] = fp
            self.quality[inst.index] = dict(q, meets_floors=not misses)
        res.outputs = [{"pairs": len(out["pairs"])} for out in res.outputs]


def timed_setups(wl, workload, seed, workdir):
    spans = []
    t_all = time.perf_counter()
    while True:
        t0 = wl.now()
        instances = wl.setup(workload, seed, workdir)
        spans.append(wl.span(t0))
        spent = time.perf_counter() - t_all
        if len(spans) >= SETUP_MAX_REPS or (
                len(spans) >= SETUP_MIN_REPS and spent >= SETUP_MIN_SECONDS):
            return instances, spans


def warm_up(wl, workdir):
    """Run every code path once on a tiny instance, outside any timed region."""
    from laftr import generator

    def tiny(seed):
        z = generator.planted_blocks(12, 2)
        w = generator.block_weights(2)
        return z, w, generator.sample_edges(z, w, seed)

    workload = wl.Workload(name="warm-up", generate=tiny,
                           fit_options=dict(max_outer_iters=2), tie_symmetric=False,
                           instances=1, trace_instances=1, read_reps=1)
    for inst in wl.setup(workload, 0, workdir):
        wl.run_op(workload, inst)


def measure(wl, workload, run, instances, seconds):
    """Closed loop: all instances once, then cycle them while time remains."""
    results = []
    t_start = time.perf_counter()
    count = 0
    while True:
        inst = instances[count % len(instances)]
        res = run.attempt(inst)
        if res is not None:
            run.check(inst, res, f"op {count}")
            results.append(res)
        count += 1
        elapsed = time.perf_counter() - t_start
        if elapsed > MAX_RUN_SECONDS:
            run.problems.append(f"stopped at the {MAX_RUN_SECONDS:.0f} s cap after {count} operations")
            break
        if count >= len(instances):
            typical = statistics.median(r.wall_s for r in results) if results else 0.0
            if elapsed + typical > seconds:
                break
    return results


def end_to_end(wl, workload, run, results, setup_spans, seconds) -> dict:
    """End-to-end metrics; ``seconds`` maps a span (see workloads.span) to its length."""
    reads = [times for res in results for times in res.reads]
    pairs = results[0].outputs[0]["pairs"]
    if workload.fit_options is not None:
        eval_iter_s = (math.fsum(seconds(r.eval_span) for r in results)
                       / sum(r.iters for r in results))
    else:
        eval_iter_s = statistics.median(
            math.fsum(seconds(times[step]) for step in wl.EVAL_STEPS) for times in reads)
    # the quality metrics describe the fits that recovered the planted
    # structure; the misses are counted in floor_miss_frac
    quality = [q for q in run.quality.values() if q["meets_floors"]] or list(run.quality.values())
    return {
        "setup_s": statistics.median(seconds(span) for span in setup_spans),
        "eval_iter_s": eval_iter_s,
        "read_s": statistics.median(
            math.fsum(seconds(times[step]) for step in wl.READ_STEPS) for times in reads),
        "pairs_per_s": statistics.median(pairs / seconds(times["cli_predict"]) for times in reads),
        "heldout_auc_ratio": statistics.median(q["auc_ratio"] for q in quality),
        "final_objective_ratio": statistics.median(q["objective_ratio"] for q in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(wl, spans, workload, run, seed, workdir):
    """Set up once untraced and once traced; then each of the first
    trace_instances runs untraced, then traced, and the results must agree."""
    tracer = spans.Tracer()
    t0 = wl.now()
    instances = wl.setup(workload, seed, workdir)
    untraced = [wl.span(t0)]
    warm_up(wl, workdir)
    tracer.op = -1
    t0 = wl.now()
    with tracer:
        wl.setup(workload, seed, workdir)
    traced = [wl.span(t0)]

    reports = []
    for k in range(workload.trace_instances):
        inst = instances[k]
        plain = run.attempt(inst)
        if plain is None:
            continue
        run.check(inst, plain, "untraced")
        tracer.op = k
        with_spans = run.attempt(inst, traced=tracer)
        if with_spans is None:
            continue
        run.check(inst, with_spans, "traced")
        untraced.append(plain.op_span)
        traced.append(with_spans.op_span)
        if plain.report is not None:
            reports.append(plain.report)
    return untraced, traced, reports, tracer


def per_layer(tracer, reports, quality, untraced, traced, seconds) -> dict:
    """Span totals, FitReport figures, criterion-2 floor misses and tracing
    overhead; ``seconds`` as in end_to_end."""
    traced_wall = math.fsum(span[1] - span[0] for span in traced)
    overhead = (math.fsum(seconds(span) for span in traced)
                - math.fsum(seconds(span) for span in untraced))
    metrics = {}
    for name, stats in tracer.summary().items():
        for key, value in stats.items():
            metrics[f"{name}.{key}"] = value
    iters = sum(len(r.objective_trace) for r in reports)
    proposed = sum(len(r.accepted_births) for r in reports)
    accepted = sum(sum(r.accepted_births) for r in reports)
    fits = max(len(reports), 1)
    metrics.update({
        "optimizer.report.outer_iters": iters / fits,
        "optimizer.report.s_per_iter": math.fsum(math.fsum(r.elapsed) for r in reports) / max(iters, 1),
        "optimizer.report.births_proposed": proposed / fits,
        "optimizer.report.births_accepted": accepted / fits,
        "optimizer.report.birth_accept_ratio": accepted / proposed if proposed else 0.0,
        "optimizer.report.converged_frac": sum(r.converged for r in reports) / fits,
        "optimizer.report.floor_miss_frac":
            sum(not q["meets_floors"] for q in quality) / max(len(quality), 1),
        "trace.spans": len(tracer.name),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / math.fsum(seconds(span) for span in untraced),
        "trace.span_coverage": tracer.root_seconds() / traced_wall,
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import laftr  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import laftr from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import pace
    import spans
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = wl.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    run = Run(wl, workload)
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    try:
        if args.trace:
            with pace.Pacer() as pacer:
                untraced, traced, reports, tracer = traced_run(
                    wl, spans, workload, run, args.seed, workdir)
            computed = per_layer(tracer, reports, list(run.quality.values()), untraced, traced,
                                 pacer.scaled)
            tracer.save(OUT_DIR / f"spans-{tag}.npz")
            detail["absent_spans"] = tracer.absent
        else:
            with pace.Pacer() as pacer:
                instances, setup_spans = timed_setups(wl, workload, args.seed, workdir)
                warm_up(wl, workdir)
                results = measure(wl, workload, run, instances, args.seconds)
            if not results:
                raise RuntimeError("no operation completed")
            computed = end_to_end(wl, workload, run, results, setup_spans, pacer.scaled)
            detail["wall_clock_metrics"] = end_to_end(wl, workload, run, results, setup_spans,
                                                      lambda span: span[1] - span[0])
            detail["pacer"] = {"cpu": pacer.cpu, "times": pacer.times.tolist(),
                               "kernel_s": pacer.kernel_s.tolist()}
            detail["instance_seeds"] = [inst.seed for inst in instances]
            detail["setup_spans"] = setup_spans
            detail["operations"] = [
                {"eval_span": r.eval_span, "iters": r.iters, "wall_s": r.wall_s, "reads": r.reads}
                for r in results]
    except Exception:
        print(f"perfbench: run failed:\n{traceback.format_exc()}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in computed]
    bad = [k for k, v in computed.items() if not math.isfinite(v)]
    if missing or bad:
        print(f"perfbench: metrics missing {missing} or non-finite {bad}", file=sys.stderr)
        return 1
    detail.update(correct=run.correct, attempted=run.attempted, failed=run.failed,
                  problems=run.problems, quality=list(run.quality.values()), metrics=computed)
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n",
                                             encoding="utf-8")
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
