"""Span tracing of laftr from outside the package.

While a :class:`Tracer` is active, each target function is replaced by a
timing wrapper in every ``laftr`` module namespace that holds it (the
defining module and every module that imported it by name), and methods are
replaced on their class. Calls made inside the package therefore go through
the wrapper too, which is what turns the module boundaries into spans
without touching the package's code.

Spans are kept in memory as parallel arrays (name, start, end, parent, op)
and written out once, at the end of the run.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

PACKAGE = "laftr"
# (module, attribute path) of every traced target; a dotted attribute path
# names a method on a class defined in that module.
TARGETS = (
    ("generator", "sample_lfrm"),
    ("generator", "sample_edges"),
    ("graph", "load_dense_matrix"),
    ("graph", "split_observations"),
    ("graph", "write_mask"),
    ("graph", "write_dense"),
    ("model", "objective"),
    ("model", "link_probability"),
    ("model", "ModelState.rebuild_caches"),
    ("optimizer", "fit"),
    ("optimizer", "optimize_w"),
    ("optimizer", "propose_feature"),
    ("optimizer", "prune_empty_features"),
    ("evaluation", "evaluate_split"),
    ("evaluation", "predict_links"),
    ("evaluation", "auc_from_scores"),
    ("cli", "main"),
    ("cli", "load_model"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)


class Tracer:
    """Records one span per call to each target while installed.

    ``op`` is the id stamped on new spans; the caller sets it to the index
    of the operation (one instance's fit and read path) being traced.
    Targets that no longer exist are listed in ``absent`` and skipped.
    """

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op_id, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        self.absent = []
        for name_id, (module_name, attr) in enumerate(TARGETS):
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner, _, leaf = attr.rpartition(".")
            holder = home
            for part in owner.split(".") if owner else ():
                holder = getattr(holder, part, None)
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.absent.append(SPAN_NAMES[name_id])
                continue
            wrapper = self._wrap(original, name_id)
            if owner:
                self._patch(holder, leaf, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, holder, key: str, original, wrapper) -> None:
        self._restore.append((holder, key, original))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which tile disjoint parts of the parent's interval.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_dur = dur - child
        out = {}
        for name_id, span_name in enumerate(SPAN_NAMES):
            sel = a["name"] == name_id
            out[span_name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_dur[sel].sum()),
            }
        return out

    def root_seconds(self) -> float:
        """Total duration of spans with no traced parent."""
        a = self.arrays()
        root = a["parent"] < 0
        return float((a["end"][root] - a["start"][root]).sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())
