"""Span tracing of magmoments from outside the program.

``install()`` replaces every public function of each layer module (and a
few ``PointCloud`` methods) by a wrapper that records a span: name, start,
end, parent span and a few size attributes of the call. Modules bind
library functions by name (``from .magnitude import weights_at_scale``),
so each wrapper is installed at every import site: every attribute of
every ``magmoments`` module that is one of the original functions. After
installing, the import sites are scanned again and any original left
behind is an error, so a traced run never silently misses a layer.

Spans stay in memory; ``dump(path)`` writes them as JSON at the end of the
process. ``summarise`` derives each span's self time: its duration minus
the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types

#: The layers: modules under src/magmoments/, in call-graph order.
LAYERS = (
    "datagen",
    "geometry",
    "magnitude",
    "moments",
    "schur",
    "hull_exact",
    "hull_filter",
    "experiments",
    "cli",
)

#: Class methods traced in addition to the public module functions.
METHODS = {"geometry": {"PointCloud": ("from_csv", "write_csv")}}


class Recorder:
    """In-memory span store; one parent stack per thread."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start_ns, end_ns, attrs]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func):
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            with recorder._lock:
                span_id = len(recorder.spans)
                recorder.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans[span_id] = [
                    span_id, parent, name, start, end, _attrs(args, kwargs)
                ]

        return traced

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


def _attrs(args, kwargs):
    """Sizes that per-layer metrics need: N, d and quadrature order."""
    out = {}
    if args:
        first = args[0]
        size = getattr(first, "size", None)
        if isinstance(size, int):
            out["n"] = size
        dim = getattr(first, "dim", None)
        if isinstance(dim, int):
            out["d"] = dim
    for value in list(args[1:]) + list(kwargs.values()):
        order = getattr(value, "order", None)
        if isinstance(order, int) and hasattr(value, "nodes"):
            out["order"] = order
    return out


def _targets():
    """(qualified name, original function) pairs to wrap."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"magmoments.{layer}")
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == mod.__name__
                and not isinstance(value, type)
            ):
                found.append((f"{layer}.{attr}", value))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                found.append((f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
    return found


def _owners():
    """Every namespace that can bind a library function: the package's
    modules and the package's classes they hold."""
    mods = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "magmoments" or name.startswith("magmoments."))
    ]
    classes = {
        id(v): v
        for mod in mods
        for v in vars(mod).values()
        if isinstance(v, type) and v.__module__.startswith("magmoments")
    }
    return mods + list(classes.values())


def install(recorder: Recorder) -> dict:
    """Wrap every target at every import site; return {name: sites}."""
    importlib.import_module("magmoments")
    targets = _targets()
    wrapped = {}  # id(original) -> (name, wrapper)
    for name, raw in targets:
        if isinstance(raw, classmethod):
            wrapper = classmethod(recorder.wrap(name, raw.__func__))
        else:
            wrapper = recorder.wrap(name, raw)
        wrapped[id(raw)] = (name, wrapper)
    sites = {name: 0 for name, _ in targets}
    for owner in _owners():
        for attr, value in list(vars(owner).items()):
            hit = wrapped.get(id(value))
            if hit is not None:
                setattr(owner, attr, hit[1])
                sites[hit[0]] += 1
    unwrapped = unwrapped_sites()
    if unwrapped or not all(sites.values()):
        raise RuntimeError(
            f"tracer left import sites unwrapped: {unwrapped}; "
            f"sites per function: {sites}"
        )
    return sites


def unwrapped_sites() -> list:
    """Import sites that hold a traced function's original, unwrapped.

    Checked independently of ``install``: any public function of a layer
    module, or listed method, found anywhere in the package without the
    ``__wrapped__`` attribute that ``functools.wraps`` sets.
    """
    layer_modules = {f"magmoments.{layer}" for layer in LAYERS}
    methods = {
        (f"magmoments.{layer}", cls, meth)
        for layer, classes in METHODS.items()
        for cls, meths in classes.items()
        for meth in meths
    }
    left = []
    for owner in _owners():
        for attr, value in vars(owner).items():
            func = value.__func__ if isinstance(value, classmethod) else value
            if not isinstance(func, types.FunctionType) or hasattr(func, "__wrapped__"):
                continue
            if isinstance(owner, type):
                traced = (func.__module__, owner.__name__, attr) in methods
            else:
                traced = func.__module__ in layer_modules and not attr.startswith("_")
            if traced:
                left.append(f"{owner.__name__}.{attr}")
    return left


def summarise(spans, since_ns=None):
    """Per-span rows {name, parent, attrs, dur_s, self_s} keyed by span id.

    Self time is the span's duration minus that of its direct children.
    ``since_ns`` keeps only spans starting at or after it.
    """
    rows = {}
    child_ns = {}
    for span_id, parent, name, start, end, attrs in spans:
        if since_ns is not None and start < since_ns:
            continue
        rows[span_id] = {"name": name, "parent": parent, "attrs": attrs,
                         "dur_s": (end - start) * 1e-9}
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    for span_id, row in rows.items():
        row["self_s"] = row["dur_s"] - child_ns.get(span_id, 0) * 1e-9
    return rows
