"""Spans around the calls that cross lpdict's module boundaries.

Each target function is replaced, under the name its caller binds, by a
wrapper that records a span (name, start, end, parent) and the counts read
from the arrays the call returns. Spans stay in memory; the benchmark turns
one round's spans into per-layer metrics and then clears them. `FlagTap`
uses the same replacement to read the solver's convergence flags, which the
failure counts of untraced runs need.
"""

from __future__ import annotations

import importlib
import threading
import time

import numpy as np


def route_name(pen) -> str:
    """`p1q1`, `p1.5q1.5`, ... for a Penalty."""
    return f"p{pen.p:g}q{pen.q:g}"


def _solve_counts(args, kwargs, out):
    _A, _obj, iters, conv = out
    return {
        "columns": int(np.size(conv)),
        "iterations": int(np.sum(iters)),
        "unconverged": int(np.size(conv) - np.count_nonzero(conv)),
        "route": route_name(args[2]),
    }


def _batch_counts(args, kwargs, out):
    X = args[0]
    n = X.n if hasattr(X, "n") else np.shape(X)[1]
    return {"columns": int(n), "route": route_name(args[2])}


# (module, attribute the caller looks up, span name, counts from (args, kwargs, result))
TARGETS = (
    ("lpdict.cli", "run", "cli.run", None),
    ("lpdict.experiments", "gap_sweep", "experiments.gap_sweep", None),
    ("lpdict.experiments", "sample", "experiments.sample", lambda a, k, out: {"columns": int(out.n)}),
    ("lpdict.experiments", "export", "experiments.export", None),
    ("lpdict.experiments", "full_report", "bounds.full_report", None),
    ("lpdict.experiments", "learn", "learning.learn", lambda a, k, out: {"rounds": len(out.objectives)}),
    ("lpdict.experiments", "_solve_columns", "solve.experiments", _solve_counts),
    ("lpdict.learning", "_solve_columns", "solve.learning", _solve_counts),
    ("lpdict.learning", "dict_update", "learning.dict_update", None),
    ("lpdict.sparse_coding", "batch_objective", "sparse_coding.batch_objective", _batch_counts),
    (
        "lpdict.sparse_coding",
        "sparse_code",
        "sparse_coding.sparse_code",
        lambda a, k, out: {"unconverged": int(not out.converged)},
    ),
    ("lpdict.sparse_coding", "_solve_columns", "solve.sparse_coding", _solve_counts),
)


class Patches:
    """Replaces module attributes by wrappers and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, mod_name: str, attr: str, make) -> bool:
        """Replace `mod_name.attr` by `make(original)`; False when there is no such attribute."""
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr, None)
        if fn is None:
            return False
        wrapper = make(fn)
        wrapper.__wrapped__ = fn
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, wrapper)
        return True

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


class Tracer:
    """Installs the wrappers, keeps the spans, restores the originals on `uninstall`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.count_errors: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = Patches()

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the span names whose target is missing."""
        return [name for mod_name, attr, name, counter in TARGETS
                if not self._patches.wrap(mod_name, attr, lambda fn, n=name, c=counter: self._wrap(fn, n, c))]

    def uninstall(self) -> None:
        self._patches.restore()

    def clear(self) -> None:
        self.spans = []
        self.count_errors = []

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = {"name": name, "parent": stack[-1] if stack else None, "counts": {}}
            with tracer._lock:
                span["id"] = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, out)
                except (AttributeError, TypeError, ValueError, IndexError) as exc:
                    tracer.count_errors.append(f"{name}: {exc!r}")
            return out

        return wrapper


class FlagTap:
    """Keeps the `converged` array of every `_solve_columns` call made through
    one module's binding, in untraced and traced rounds alike.

    The program's batch paths (`batch_objective`, the sweep's holdout in
    `estimate_expected_f`) drop these flags, so the benchmark reads them at
    this boundary. With `scope`, each flag array is tagged with the key of the
    innermost open call of a second function in the same thread.
    """

    def __init__(self, mod_name: str, scope: tuple[str, object] | None = None):
        self.flags: list[tuple[object, np.ndarray]] = []  # (scope key, converged)
        self._local = threading.local()
        self._patches = Patches()
        self.ok = self._patches.wrap(mod_name, "_solve_columns", self._tap)
        if scope is not None:
            attr, key = scope
            self.ok &= self._patches.wrap(mod_name, attr, lambda fn: self._scoped(fn, key))

    def _tap(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.flags.append((getattr(self._local, "key", None), np.asarray(out[3], dtype=bool).ravel()))
            return out

        return wrapper

    def _scoped(self, fn, key):
        def wrapper(*args, **kwargs):
            outer = getattr(self._local, "key", None)
            self._local.key = key(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.key = outer

        return wrapper

    def close(self) -> None:
        self._patches.restore()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = []
    for s in spans:
        covered, end = 0.0, -float("inf")
        for t0, t1 in sorted(children.get(s["id"], [])):
            if t1 <= end:
                continue
            covered += t1 - max(t0, end)
            end = t1
        out.append(s["t1"] - s["t0"] - covered)
    return out
