"""The package's public names: each module lists its own, `laftr` exports them all, and
each has a caller outside the tests."""

import ast
import importlib
from pathlib import Path

import pytest

import laftr

MODULES = ("errors", "evaluation", "generator", "graph", "model", "optimizer")
ROOT = Path(__file__).resolve().parent.parent

# every name `laftr` exported while it listed them itself, but
# delta_objective_flip, which moved to the tests; decode_utf8 was in
# graph.__all__ but not among them
EARLIER_EXPORTS = (
    "AdjacencyMatrix", "FitConfig", "FitReport", "LaftrError", "ModelState", "NumericalError",
    "ObservationMask", "ParseError", "SplitResult", "UndefinedMetricError", "auc_from_scores",
    "block_weights", "class_counts", "cross_validate_lambda", "distinct_link_probabilities",
    "evaluate_split", "fit", "heldout_scorer", "init_state", "link_probability",
    "load_dense_matrix", "load_edge_list", "load_mask", "load_pairs", "negative_log_likelihood",
    "objective", "optimize_w", "planted_blocks", "predict_links", "prune_empty_features",
    "run_splits", "sample_edges", "sample_ibp", "sample_lfrm", "sigmoid", "softplus",
    "split_observations", "write_dense", "write_mask", "write_predictions",
)


def _module(name):
    return importlib.import_module(f"laftr.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists_in_its_module(name):
    module = _module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_the_union_of_the_module_lists():
    listed = [n for name in MODULES for n in _module(name).__all__]
    assert len(set(listed)) == len(listed)  # no name is listed by two modules
    assert sorted(laftr.__all__) == sorted(listed)
    for name in MODULES:
        for n in _module(name).__all__:
            assert getattr(laftr, n) is getattr(_module(name), n)


def test_earlier_exports_still_resolve():
    names = [*EARLIER_EXPORTS, "decode_utf8"]
    assert [n for n in names if n not in laftr.__all__ or not hasattr(laftr, n)] == []


def _referenced_names(path: Path) -> set[str]:
    """Every name a file reads, as a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # math only the tests use belongs in tests/conftest.py, not in the package
    referenced = set().union(*(_referenced_names(path) for top in ("src", "perfbench", "scripts")
                               for path in sorted((ROOT / top).rglob("*.py"))))
    assert [n for n in laftr.__all__ if n not in referenced] == []
