"""Span tracing of the ncconic layers, installed from outside the package.

`Tracer.install()` replaces every public module-level function of the traced
modules with a wrapper that records one span per call: name, start, end,
parent span and the operation (request) the call belongs to.  The wrapper is
bound under every name that refers to the original function in any loaded
`ncconic` module, so `from .x import y` bindings and module-level lookup
tables are traced as well as the defining module.  `Scalar` constructions
are counted, not spanned: there are millions of them.

Spans stay in memory until `write()`; self time is derived from them after
the run (a span's duration minus the durations of its direct children).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import Counter

MODULES = (
    "scalars",
    "linalg",
    "freealg",
    "rewrite",
    "galgebra",
    "quadratic",
    "elements",
    "homog",
    "cmap",
    "findim",
    "geometry",
    "dataset",
    "presfile",
    "cli",
)


def _algebra_key(A) -> tuple:
    p = A.presentation
    return (str(A.ambient.spec), tuple(str(r) for r in p.relations), A.truncation)


def _finite_key(A) -> tuple:
    return tuple(str(c) for row in A.table for cell in row for c in cell)


# Inputs that identify a distinct piece of work, for the distinct_ratio metrics.
DISTINCT_KEYS = {
    "elements.find_normal_degree1": _algebra_key,
    "findim.is_frobenius": _finite_key,
}


def _rref_cells(args, result) -> int:
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


# Per-call quantities summed over the calls of one traced function.
TALLIES = {
    "linalg.rref": ("cells", _rref_cells),
    "rewrite.complete": ("rules_out", lambda args, r: len(r.rules)),
    "geometry.eliminate_small": ("complete", lambda args, r: int(r.complete)),
    "cmap.compute_C": ("dehomogenize", lambda args, r: int(r.path.startswith("dehomogenize"))),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        # (name index, start, end, parent span index or -1, operation index)
        self.spans: list[tuple | None] = []
        self.tallies: Counter = Counter()
        self.keys: dict[str, set] = {name: set() for name in DISTINCT_KEYS}
        self.scalars_created = 0
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"ncconic.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(val) in wrappers:
                    self._set(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers:
                            self._undo.append((val, k, v))
                            val[k] = wrappers[id(v)]
        from ncconic.scalars import Scalar

        post_init = Scalar.__post_init__

        def counted_post_init(s):
            self.scalars_created += 1
            post_init(s)

        self._set(Scalar, "__post_init__", counted_post_init)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, spans, stack = self.calls, self.spans, self._stack
        perf = time.perf_counter
        key_fn = DISTINCT_KEYS.get(name)
        keys = self.keys.get(name)
        tally = TALLIES.get(name)
        tallies = self.tallies
        tracer = self

        def traced(*args, **kwargs):
            calls[idx] += 1
            if key_fn is not None:
                keys.add(key_fn(args[0]))
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, tracer.op)
            if tally is not None:
                tallies[f"{name}.{tally[0]}"] += tally[1](args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each function outside its traced callees."""
        child = [0.0] * len(self.spans)
        for idx, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(self.names, 0.0)
        for i, (idx, t0, t1, _parent, _op) in enumerate(self.spans):
            out[self.names[idx]] += (t1 - t0) - child[i]
        return out

    def call_counts(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def write(self, path) -> None:
        """All spans as gzip'd CSV: name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            names = self.names
            for i, (idx, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{names[idx]},{t0:.7f},{t1:.7f},{parent},{op}\n")
