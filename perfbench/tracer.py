"""Outside-in tracing of the apolar modules.

The tracer wraps every public function of each apolar module (plus
`Poly.coefficient_vector`) and rebinds the wrapper in every module namespace that holds
the original, so calls made through `from .x import y` are seen too.  No
library file changes; `remove()` puts every original back.

Spans stay in memory while an operation runs.  `end_op()` turns them into
per-function self time (a span's duration minus the durations of its child
spans) and adds them to the totals; the spans of the slowest operation are
kept for the report.

Generator functions return before doing any work, so for them only calls
are counted: their iteration cost is part of the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("poly", "linalg", "apolarity", "ideals", "ranks", "witness",
           "wildcert", "parsing", "cli")
METHODS = (("poly", "Poly", "coefficient_vector"),)


# linalg routines whose first argument is a matrix (rows or columns)
MATRIX_ARG = {"linalg.rref", "linalg.rank", "linalg.kernel_basis",
              "linalg.solve_columns", "linalg.intersect_spans", "linalg.mat_vec"}


def _matrix_entries(rows) -> int:
    """Rows x columns of a list-of-rows argument; 0 for anything else, so an
    iterator is never consumed."""
    if not isinstance(rows, (list, tuple)) or not rows:
        return 0
    return len(rows) * len(rows[0])


def _self_times(spans):
    """(name, duration, self time) per span: duration minus child spans."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(name, end - start, end - start - child[i])
            for i, (name, parent, start, end) in enumerate(spans)]


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"apolar.{m}") for m in MODULES]
        self.namespaces = [importlib.import_module("apolar")] + self.modules
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)  # linalg.entries, product_locus samples/solves
        self.spans = []  # (name, parent index, start, end) of the running operation
        self.open = []  # indices and names of spans not yet closed
        self.locus_depth = 0
        self.ops = 0
        self.slowest = None  # (seconds, index, spans)
        self._undo = []

    # -- installation --------------------------------------------------------

    def targets(self):
        """(qualified name, owner, attribute, function) for each traced callable."""
        out = []
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                out.append((f"{short}.{attr}", mod, attr, fn))
        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"apolar.{short}"), cls_name)
            out.append((f"{short}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]))
        return out

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, fn in self.targets():
            wrapper = self._counting(name, fn) if inspect.isgeneratorfunction(fn) \
                else self._spanning(name, fn)
            if inspect.isclass(owner):
                self._rebind(owner, attr, wrapper)
                continue
            for ns in self.namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._rebind(ns, key, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _counting(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanning(self, name, fn):
        spans, open_, counters = self.spans, self.open, self.counters
        takes_matrix = name in MATRIX_ARG
        is_kernel = name == "linalg.kernel_basis"
        is_locus = name == "wildcert.product_locus"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if takes_matrix and args and not (open_ and open_[-1][1].startswith("linalg.")):
                # entries handed to linalg from another module
                counters["linalg.entries"] += _matrix_entries(args[0])
            if is_kernel and self.locus_depth and len(args) > 1 and args[1] == 2:
                counters["wildcert.product_locus.factor_solves"] += 1
            if is_locus:
                self.locus_depth += 1
            idx = len(spans)
            parent = open_[-1][0] if open_ else -1
            spans.append(None)
            open_.append((idx, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx] = (name, parent, start, end)
                if is_locus:
                    self.locus_depth -= 1
            if is_locus:
                counters["wildcert.product_locus.samples"] += len(result.all_samples())
            return result

        return traced

    # -- per-operation bookkeeping ---------------------------------------------

    def end_op(self, index: int, seconds: float):
        """Fold the spans of the finished operation into the totals."""
        for name, duration, own in _self_times(self.spans):
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += own
        self.ops += 1
        if self.slowest is None or seconds > self.slowest[0]:
            self.slowest = (seconds, index, list(self.spans))
        self.spans.clear()

    def per_op(self, name: str, field: str, scale: float = 1.0) -> float:
        """Calls, or self milliseconds times `scale`, per traced operation."""
        if not self.ops:
            return 0.0
        if field == "calls":
            return self.calls[name] / self.ops
        return 1000.0 * scale * self.self_s[name] / self.ops

    def sample_yield(self) -> float:
        solves = self.counters["wildcert.product_locus.factor_solves"]
        return self.counters["wildcert.product_locus.samples"] / solves if solves else 0.0

    def table(self, scale: float = 1.0) -> dict:
        """Every traced function with calls and times (times `scale`) per
        operation; total_ms counts a recursive call's time once per level."""
        ops = max(self.ops, 1)
        return {
            name: {
                "calls": self.calls[name] / ops,
                "self_ms": 1000.0 * scale * self.self_s[name] / ops,
                "total_ms": 1000.0 * scale * self.total_s[name] / ops,
            }
            for name in sorted(self.calls)
        }

    def slowest_op(self, top: int = 5) -> dict:
        if self.slowest is None:
            return {}
        seconds, index, spans = self.slowest
        self_s = defaultdict(float)
        for name, _, own in _self_times(spans):
            self_s[name] += own
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])[:top]
        return {"index": index, "ms": 1000.0 * seconds, "spans": len(spans),
                "top_self_ms": [[name, 1000.0 * s] for name, s in ranked]}
