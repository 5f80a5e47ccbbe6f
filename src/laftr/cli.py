"""Command-line surface: fit, predict, eval, cv, generate, communities.

Artifacts are plain text (JSON/CSV) written atomically (temp file, then
rename) so a crash never leaves a half-written output. Every output embeds
the seeds that produced it; none embeds a timestamp, so identical
invocations produce byte-identical files.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import generator, graph
from .errors import LaftrError, NumericalError, ParseError, UndefinedMetricError
from .evaluation import auc_from_scores, cross_validate_lambda, predict_links, run_splits
from .graph import AdjacencyMatrix, ObservationMask
from .model import ModelState, link_probability
from .optimizer import FitConfig, fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this CLI reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_matrix(path: str, fmt: str, n: int | None = None) -> AdjacencyMatrix:
    with open(path, encoding="utf-8") as handle:
        if fmt == "edges":
            return graph.load_edge_list(handle, n=n)
        return graph.load_dense_matrix(handle)


def _model_to_json(state: ModelState, objective_trace, seed: int) -> str:
    payload = {
        "k": state.k_plus,
        "lambda": state.lam,
        "z": [[int(v) for v in row] for row in state.z],
        "w": [[float(v) for v in row] for row in state.w],
        "objective_trace": [float(q) for q in objective_trace],
        "seed": seed,
    }
    return json.dumps(payload, indent=1) + "\n"


def load_model(path: str) -> tuple[ModelState, dict]:
    """Read a model JSON file back into a ModelState (caches rebuilt).

    ``k`` must equal the column count of ``z`` and ``w`` must be a K x K
    nested list; otherwise a ParseError names the offending field.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    z = np.asarray(payload["z"], dtype=float)
    k = payload["k"]
    if z.ndim != 2 or k != z.shape[1]:
        raise ParseError(f"model field 'k' is {k!r} but 'z' has shape {z.shape}")
    w = payload["w"]
    if not (isinstance(w, list) and len(w) == k
            and all(isinstance(row, list) and len(row) == k for row in w)):
        raise ParseError(f"model field 'w' must be a {k}x{k} nested list")
    w = np.asarray(w, dtype=float).reshape(k, k)  # k = 0: [] becomes 0 x 0
    state = ModelState.from_factors(z, w, payload["lambda"])
    return state, payload


def _fit_config_from_args(args) -> FitConfig:
    return FitConfig(
        lam=args.lam,
        sigma_w=args.sigma_w,
        k_init=args.k_init,
        max_outer_iters=args.max_iters,
        rel_tol=args.rel_tol,
        seed=args.seed,
        include_diagonal=args.include_diagonal,
    )


def _add_fit_flags(parser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5,
                        help="per-community penalty weight (default 0.5)")
    parser.add_argument("--sigma-w", type=float, default=1.0,
                        help="stddev of Gaussian W initialization (default 1.0)")
    parser.add_argument("--k-init", type=int, default=1,
                        help="initial community count (default 1)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--max-iters", type=int, default=100,
                        help="outer iteration cap (default 100)")
    parser.add_argument("--rel-tol", type=float, default=1e-6,
                        help="relative objective improvement stop (default 1e-6)")
    parser.add_argument("--include-diagonal", action="store_true",
                        help="treat self-links as observable entries")


def _add_input_flags(parser) -> None:
    parser.add_argument("--input", required=True, help="graph file")
    parser.add_argument("--format", choices=("dense", "edges"), default="dense",
                        help="graph file format (default dense)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="laftr",
                     description="Overlapping community models for link prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and write model JSON")
    _add_input_flags(p_fit)
    p_fit.add_argument("--mask", help="mask file; lines 'i j {0|1}', 1 = train")
    p_fit.add_argument("--out", required=True, help="model JSON output path")
    p_fit.add_argument("--auc-trace", action="store_true",
                       help="also write <out>.trace.csv of (seconds, heldout_auc) per iteration")
    _add_fit_flags(p_fit)

    p_pred = sub.add_parser("predict", help="score node pairs with a fitted model")
    p_pred.add_argument("--model", required=True, help="model JSON from fit")
    p_pred.add_argument("--input", required=True, help="pair list: lines 'i j'")
    p_pred.add_argument("--out", required=True, help="CSV output: i,j,probability")

    p_eval = sub.add_parser("eval", help="multi-split link-prediction protocol")
    _add_input_flags(p_eval)
    p_eval.add_argument("--out", required=True,
                        help="output prefix: writes <out>.csv, <out>.json, <out>.split<seed>.mask")
    p_eval.add_argument("--splits", type=int, default=5, help="number of splits (default 5)")
    p_eval.add_argument("--train-fraction", type=float, default=0.8,
                        help="fraction of entries observed in training (default 0.8)")
    p_eval.add_argument("--tie-symmetric", choices=("auto", "yes", "no"), default="auto",
                        help="mirrored entries share a split (default: auto from the data)")
    _add_fit_flags(p_eval)

    p_cv = sub.add_parser("cv", help="cross-validate the penalty weight")
    _add_input_flags(p_cv)
    p_cv.add_argument("--out", required=True, help="CSV output: lambda,mean_auc")
    p_cv.add_argument("--lambda-grid", required=True,
                      help="comma-separated penalty values, e.g. 0.1,0.5,1.0")
    p_cv.add_argument("--folds", type=int, default=5, help="fold count (default 5)")
    p_cv.add_argument("--train-fraction", type=float, default=0.8,
                      help="observed fraction before folding (default 0.8)")
    p_cv.add_argument("--tie-symmetric", choices=("auto", "yes", "no"), default="auto")
    _add_fit_flags(p_cv)

    p_gen = sub.add_parser("generate", help="sample a synthetic graph")
    p_gen.add_argument("--out", required=True,
                       help="dense matrix output; truth factors go to <out>.truth.json")
    p_gen.add_argument("--n", type=int, required=True, help="node count")
    p_gen.add_argument("--alpha", type=float, default=1.0,
                       help="buffet-process rate for sampled memberships (default 1.0)")
    p_gen.add_argument("--sigma-w", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--planted-k", type=int,
                       help="instead of sampling memberships, plant this many disjoint blocks")
    p_gen.add_argument("--w-in", type=float, default=6.0,
                       help="within-block weight for --planted-k (default 6)")
    p_gen.add_argument("--w-out", type=float, default=-6.0,
                       help="cross-block weight for --planted-k (default -6)")

    p_comm = sub.add_parser("communities", help="list community memberships from a model")
    p_comm.add_argument("--model", required=True, help="model JSON from fit")
    p_comm.add_argument("--labels", help="optional node-name file, one per line")
    p_comm.add_argument("--out", help="write the report here instead of stdout")

    return parser


def dump_communities(model_payload: dict, labels: list[str] | None = None) -> str:
    """Text report of community memberships, smallest community first.

    A node with several memberships appears under each of its communities;
    overlap is the point of the model.
    """
    z = np.asarray(model_payload["z"])
    k = int(model_payload["k"])
    n = z.shape[0]
    if labels is not None and len(labels) != n:
        raise ValueError(f"model has {n} nodes but {len(labels)} labels given")
    if k == 0:
        return "no communities: the model has zero active features\n"

    def name(i: int) -> str:
        return labels[i] if labels is not None else str(i)

    members = [np.flatnonzero(z[:, col]) for col in range(k)]
    order = sorted(range(k), key=lambda col: (len(members[col]), col))
    lines = []
    for col in order:
        nodes = ", ".join(name(i) for i in members[col])
        lines.append(f"community {col} (size {len(members[col])}): {nodes}")
    return "\n".join(lines) + "\n"


def _load_pairs(path: str) -> list[tuple[int, int]]:
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ParseError(f"expected 'i j', got {line!r}", lineno)
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError(f"non-integer pair in {line!r}", lineno) from None
    return pairs


def _tie_symmetric_arg(value: str) -> bool | None:
    return {"auto": None, "yes": True, "no": False}[value]


def _cmd_fit(args) -> int:
    y = _load_matrix(args.input, args.format)
    config = _fit_config_from_args(args)
    if args.mask:
        with open(args.mask, encoding="utf-8") as handle:
            train_mask, test_mask = graph.load_mask(handle, y.n)
    else:
        train_mask = ObservationMask.full(y.n, include_diagonal=args.include_diagonal)
        test_mask = None
    if args.auc_trace and (test_mask is None or test_mask.count == 0):
        raise ParseError("--auc-trace needs a mask with held-out (flag 0) entries")

    trace_rows: list[tuple[float, float]] = []
    on_iteration = None
    if args.auc_trace:
        test_rows, test_cols = np.nonzero(test_mask.observed)
        test_labels = y.entries[test_rows, test_cols]

        def on_iteration(_iteration, state, seconds):
            scores = link_probability(state, test_rows, test_cols)
            trace_rows.append((seconds, auc_from_scores(scores, test_labels)))

    report = fit(y, train_mask, config, on_iteration=on_iteration)
    _atomic_write(args.out, _model_to_json(report.final_state, report.objective_trace, config.seed))
    if args.auc_trace:
        lines = ["seconds,heldout_auc"]
        lines += [f"{sec:.6f},{auc:.6f}" for sec, auc in trace_rows]
        _atomic_write(args.out + ".trace.csv", "\n".join(lines) + "\n")
    print(f"fit: k={report.final_state.k_plus} objective={report.objective_trace[-1]:.6f} "
          f"converged={report.converged} -> {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    state, _ = load_model(args.model)
    pairs = _load_pairs(args.input)
    probs = predict_links(state, pairs)
    lines = ["i,j,probability"]
    lines += [f"{i},{j},{p:.17g}" for (i, j), p in zip(pairs, probs)]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"predict: {len(pairs)} pairs -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    y = _load_matrix(args.input, args.format)
    config = _fit_config_from_args(args)
    results = run_splits(
        y,
        n_splits=args.splits,
        train_fraction=args.train_fraction,
        config=config,
        tie_symmetric=_tie_symmetric_arg(args.tie_symmetric),
    )
    lines = ["split_seed,lambda,k_final,auc,seconds"]
    lines += [f"{r.seed},{r.lam:.17g},{r.k_final},{r.auc:.6f},{r.seconds:.3f}" for r in results]
    _atomic_write(args.out + ".csv", "\n".join(lines) + "\n")

    aucs = [r.auc for r in results]
    aggregate = {
        "mean_auc": float(np.mean(aucs)),
        "std_auc": float(np.std(aucs)),
        "runs": [
            {"split_seed": r.seed, "lambda": r.lam, "k_final": r.k_final, "auc": r.auc}
            for r in results
        ],
    }
    _atomic_write(args.out + ".json", json.dumps(aggregate, indent=1) + "\n")
    for r in results:
        _atomic_write(f"{args.out}.split{r.seed}.mask", graph.write_mask(r.train_mask, r.test_mask))
    print(f"eval: mean_auc={aggregate['mean_auc']:.4f} std={aggregate['std_auc']:.4f} "
          f"over {len(results)} splits -> {args.out}.csv")
    return EXIT_OK


def _cmd_cv(args) -> int:
    y = _load_matrix(args.input, args.format)
    config = _fit_config_from_args(args)
    try:
        lambda_grid = [float(tok) for tok in args.lambda_grid.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"--lambda-grid must be comma-separated numbers, got {args.lambda_grid!r}") from None
    train_mask, _ = graph.split_observations(
        y, args.train_fraction, args.seed, _tie_symmetric_arg(args.tie_symmetric)
    )
    best, table = cross_validate_lambda(y, train_mask, lambda_grid, args.folds, args.seed, config)
    lines = ["lambda,mean_auc"]
    lines += [f"{lam:.17g},{auc:.6f}" for lam, auc in table]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"cv: best_lambda={best:.17g} -> {args.out}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.planted_k is not None:
        z = generator.planted_blocks(args.n, args.planted_k)
        w = generator.block_weights(args.planted_k, on=args.w_in, off=args.w_out)
        y = generator.sample_edges(z, w, args.seed)
        truth = {"mode": "planted", "seed": args.seed,
                 "w_in": args.w_in, "w_out": args.w_out}
    else:
        z, w, y = generator.sample_lfrm(args.n, args.alpha, args.sigma_w, args.seed)
        truth = {"mode": "sampled", "seed": args.seed,
                 "alpha": args.alpha, "sigma_w": args.sigma_w}
    truth["z"] = [[int(v) for v in row] for row in z]
    truth["w"] = [[float(v) for v in row] for row in np.asarray(w)]
    _atomic_write(args.out, graph.write_dense(y))
    _atomic_write(args.out + ".truth.json", json.dumps(truth, indent=1) + "\n")
    print(f"generate: n={args.n} k={np.asarray(z).shape[1]} "
          f"edges={int(y.entries.sum())} -> {args.out}")
    return EXIT_OK


def _cmd_communities(args) -> int:
    _, payload = load_model(args.model)
    labels = None
    if args.labels:
        with open(args.labels, encoding="utf-8") as handle:
            labels = [line.rstrip("\n") for line in handle if line.strip()]
    report = dump_communities(payload, labels)
    if args.out:
        _atomic_write(args.out, report)
    else:
        sys.stdout.write(report)
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "generate": _cmd_generate,
    "communities": _cmd_communities,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"laftr: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, UndefinedMetricError, LaftrError, OSError, ValueError,
            IndexError, KeyError, json.JSONDecodeError) as exc:
        print(f"laftr: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
