"""Command-line surface: fit, predict, eval, cv, generate, communities.

This module holds the command line only: the flags, the commands' CSV and
JSON reports, and the model JSON. The graph, mask, pair and predictions
file formats are read and written by laftr.graph; the fit flags and their
defaults are FitConfig's fields.

Artifacts are plain text (JSON/CSV) written atomically (temp file, then
rename) so a crash never leaves a half-written output. Every output embeds
the seeds that produced it; none embeds a timestamp, so identical
invocations produce byte-identical files.

Exit codes: 0 ok, 1 usage error, 2 data error (an input too large to hold
in memory included), 3 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import generator, graph
from .errors import LaftrError, NumericalError, ParseError
from .evaluation import cross_validate_lambda, heldout_scorer, run_splits
from .graph import AdjacencyMatrix, ObservationMask
from .model import ModelState, distinct_link_probabilities
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


def _load_matrix(path: str, fmt: str) -> AdjacencyMatrix:
    with open(path, "rb") as handle:  # the reader names the line of a byte that is not UTF-8
        if fmt == "edges":
            return graph.load_edge_list(handle)
        return graph.load_dense_matrix(handle)


def _read_text(path: str) -> str:
    """The file's UTF-8 text, lines ended by "\\n" as text-mode ``open`` ends them; a byte
    that is not UTF-8 is a ParseError that names its line."""
    with open(path, "rb") as handle:
        text = graph.decode_utf8(handle.read())
    return text.replace("\r\n", "\n").replace("\r", "\n")


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


def _is_finite_number(value) -> bool:
    """A JSON number (not a bool) that is a finite float, or an integer within float range."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def load_model(path: str) -> tuple[ModelState, dict]:
    """Read a model JSON file back into a ModelState.

    The file must hold a JSON object; ``z`` must be a nested list of rows
    of equal length holding the numbers 0 and 1, ``k`` must be an integer
    equal to their length, ``w`` must be a K x K nested list of finite
    numbers and ``lambda`` a finite number >= 0; otherwise a ParseError
    names the offending field.
    """
    payload = json.loads(_read_text(path))
    if not isinstance(payload, dict):
        raise ParseError(f"model file must hold a JSON object, got {type(payload).__name__}")
    for key in ("z", "k", "w", "lambda"):
        if key not in payload:
            raise ParseError(f"model file lacks the field {key!r}")
    z = payload["z"]
    if not (isinstance(z, list) and all(isinstance(row, list) for row in z)
            and len({len(row) for row in z}) <= 1):
        raise ParseError("model field 'z' must be a nested list of rows of equal length")
    # numpy would convert "1" and true, and fail on an integer too large for a float
    if not ({type(v) for row in z for v in row} <= {int, float}
            and set(itertools.chain.from_iterable(z)) <= {0, 1}):
        raise ParseError("model field 'z' must hold only the numbers 0 and 1")
    z = np.asarray(z, dtype=float)
    k = payload["k"]
    if type(k) is not int:  # JSON true and 2.0 load as bool and float
        raise ParseError(f"model field 'k' must be an integer, got {k!r}")
    if z.ndim != 2 or k != z.shape[1]:
        raise ParseError(f"model field 'k' is {k!r} but 'z' has shape {z.shape}")
    w = payload["w"]
    if not (isinstance(w, list) and len(w) == k
            and all(isinstance(row, list) and len(row) == k for row in w)):
        raise ParseError(f"model field 'w' must be a {k}x{k} nested list")
    if not all(_is_finite_number(v) for row in w for v in row):
        raise ParseError("model field 'w' must hold finite numbers")
    w = np.asarray(w, dtype=float).reshape(k, k)  # k = 0: [] becomes 0 x 0
    lam = payload["lambda"]
    if not (_is_finite_number(lam) and lam >= 0):
        raise ParseError(f"model field 'lambda' must be a finite number >= 0, got {lam!r}")
    # every check of ModelState.from_factors is made above, and z and w are fresh arrays
    return ModelState(z, w, float(lam)), payload


def _fit_config_from_args(args) -> FitConfig:
    return FitConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(FitConfig)})


def _add_fit_flags(parser) -> None:
    """One flag per FitConfig field, stored under the field's name, with its default."""
    parser.add_argument("--lambda", dest="lam", type=float, default=FitConfig.lam,
                        help="per-community penalty weight (default %(default)s)")
    parser.add_argument("--sigma-w", type=float, default=FitConfig.sigma_w,
                        help="stddev of Gaussian W initialization (default %(default)s)")
    parser.add_argument("--k-init", type=int, default=FitConfig.k_init,
                        help="initial community count (default %(default)s)")
    parser.add_argument("--seed", type=int, default=FitConfig.seed,
                        help="RNG seed (default %(default)s)")
    parser.add_argument("--max-iters", dest="max_outer_iters", metavar="MAX_ITERS", type=int,
                        default=FitConfig.max_outer_iters,
                        help="outer iteration cap (default %(default)s)")
    parser.add_argument("--rel-tol", type=float, default=FitConfig.rel_tol,
                        help="relative objective improvement stop (default %(default)s)")


def _add_split_flags(parser) -> None:
    parser.add_argument("--train-fraction", type=float, default=0.8,
                        help="fraction of entries observed in training (default %(default)s)")
    parser.add_argument("--tie-symmetric", choices=("auto", "yes", "no"), default="auto",
                        help="mirrored entries share a split (default: auto from the data)")


def _add_input_flags(parser) -> None:
    parser.add_argument("--input", required=True, help="graph file")
    parser.add_argument("--format", choices=("dense", "edges"), default="dense",
                        help="graph file format (default dense)")


def _fit_command_flags(parser) -> None:
    _add_input_flags(parser)
    # a mask file decides the observed entries itself, so the two exclude each other
    observed = parser.add_mutually_exclusive_group()
    observed.add_argument("--mask", help="mask file; lines 'i j {0|1}', 1 = train")
    observed.add_argument("--include-diagonal", action="store_true",
                          help="observe self-links too (without --mask)")
    parser.add_argument("--out", required=True, help="model JSON output path")
    parser.add_argument("--auc-trace", action="store_true",
                        help="also write <out>.trace.csv of (seconds, heldout_auc) per iteration")
    _add_fit_flags(parser)


def _predict_flags(parser) -> None:
    parser.add_argument("--model", required=True, help="model JSON from fit")
    parser.add_argument("--input", required=True, help="pair list: lines 'i j'")
    parser.add_argument("--out", required=True, help="CSV output: i,j,probability")


def _eval_flags(parser) -> None:
    _add_input_flags(parser)
    parser.add_argument("--out", required=True,
                        help="output prefix: writes <out>.csv, <out>.json, <out>.split<seed>.mask")
    parser.add_argument("--splits", type=int, default=5, help="number of splits (default 5)")
    _add_split_flags(parser)
    _add_fit_flags(parser)


def _cv_flags(parser) -> None:
    _add_input_flags(parser)
    parser.add_argument("--out", required=True, help="CSV output: lambda,mean_auc")
    parser.add_argument("--lambda-grid", required=True,
                        help="comma-separated penalty values, e.g. 0.1,0.5,1.0")
    parser.add_argument("--folds", type=int, default=5, help="fold count (default 5)")
    _add_split_flags(parser)
    _add_fit_flags(parser)


def _generate_flags(parser) -> None:
    parser.add_argument("--out", required=True,
                        help="dense matrix output; truth factors go to <out>.truth.json")
    parser.add_argument("--n", type=int, required=True, help="node count")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="buffet-process rate for sampled memberships (default 1.0)")
    parser.add_argument("--sigma-w", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--planted-k", type=int,
                        help="instead of sampling memberships, plant this many disjoint blocks")
    parser.add_argument("--w-in", type=float, default=6.0,
                        help="within-block weight for --planted-k (default 6)")
    parser.add_argument("--w-out", type=float, default=-6.0,
                        help="cross-block weight for --planted-k (default -6)")


def _communities_flags(parser) -> None:
    parser.add_argument("--model", required=True, help="model JSON from fit")
    parser.add_argument("--labels", help="optional node-name file, one per line")
    parser.add_argument("--out", help="write the report here instead of stdout")


def dump_communities(z: np.ndarray, labels: list[str] | None = None) -> str:
    """Text report of the memberships in the N x K 0/1 matrix z, smallest community first.

    A node with several memberships appears under each of its communities;
    overlap is the point of the model.
    """
    n, k = z.shape
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


def _tie_symmetric_arg(value: str) -> bool | None:
    return {"auto": None, "yes": True, "no": False}[value]


def _cmd_fit(args) -> int:
    y = _load_matrix(args.input, args.format)
    config = _fit_config_from_args(args)
    if args.mask:
        with open(args.mask, "rb") as handle:
            train_mask, test_mask = graph.load_mask(handle, y.n)
    else:
        train_mask = ObservationMask.full(y.n, include_diagonal=args.include_diagonal)
        test_mask = None
    if args.auc_trace and (test_mask is None or test_mask.count == 0):
        raise ParseError("--auc-trace needs a mask with held-out (flag 0) entries")

    trace_rows: list[tuple[float, float]] = []
    on_iteration = None
    if args.auc_trace:
        score = heldout_scorer(y, test_mask)  # fails before fitting, not at the first trace row

        def on_iteration(_iteration, state, seconds):
            trace_rows.append((seconds, score(state)))

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
    with open(args.input, "rb") as handle:
        pairs = graph.load_pairs(handle, state.n)
    values, index = distinct_link_probabilities(state, pairs[:, 0], pairs[:, 1])
    _atomic_write(args.out, graph.write_predictions(pairs, values, index, state.n))
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
    state, _ = load_model(args.model)
    labels = None
    if args.labels:
        labels = [line for line in _read_text(args.labels).split("\n") if line.strip()]
    report = dump_communities(state.z, labels)
    if args.out:
        _atomic_write(args.out, report)
    else:
        sys.stdout.write(report)
    return EXIT_OK


# name -> (help line, flag builder, run function), in the order `laftr --help` lists them
_COMMANDS = {
    "fit": ("fit a model and write model JSON", _fit_command_flags, _cmd_fit),
    "predict": ("score node pairs with a fitted model", _predict_flags, _cmd_predict),
    "eval": ("multi-split link-prediction protocol", _eval_flags, _cmd_eval),
    "cv": ("cross-validate the penalty weight", _cv_flags, _cmd_cv),
    "generate": ("sample a synthetic graph", _generate_flags, _cmd_generate),
    "communities": ("list community memberships from a model", _communities_flags,
                    _cmd_communities),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: one subparser per command."""
    parser = _Parser(prog="laftr",
                     description="Overlapping community models for link prediction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, _) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return parser


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command alone, as `laftr <name>`.

    Its flags, help text and Namespace are those of build_parser()'s subparser.
    An unrecognized flag prints this parser's usage, not the top-level one.
    """
    parser = _Parser(prog=f"laftr {name}")
    _COMMANDS[name][1](parser)
    parser.set_defaults(command=name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:  # build the flags of the command that runs, no others
        args = command_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except NumericalError as exc:
        print(f"laftr: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (LaftrError, OSError, ValueError, IndexError, KeyError, MemoryError) as exc:
        print(f"laftr: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
