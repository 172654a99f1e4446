"""Spans around the calls into symfunc's modules, installed from outside.

``Tracer.install`` replaces every public function of the eight layer modules
(and every public method of their public classes) with a wrapper that records
a span (name, start, end, parent, cold) in memory. A function that one module
imported from another by name is replaced in the importing module too, so a
call is seen whichever name it goes through. ``uninstall`` puts the originals
back. The untraced runs never call ``install``.

Names are found by looking, not from a fixed list, so a public name that a
later change removes simply has no spans; the few names that per-layer
metrics single out are reported as absent when missing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("partitions", "tableaux", "ring", "characters", "hopf", "matrixreps",
          "linalg", "cli")
# Calls that may build a transition table: cold when they touch a
# (basis, degree) pair not seen before in the process.
COLD_NAMES = ("ring.to_p_terms", "ring.from_p_terms", "ring.convert")
INVERT = "linalg.invert"
SOLVE = "linalg.ColumnSpaceSolver.solve"


def _pairs(qual, args):
    """(basis, degree) pairs other than p that a ring call touches; empty
    when the arguments are not shaped as expected. Reads the element's terms
    directly, so that no wrapped method runs outside a span."""
    try:
        if qual == "ring.from_p_terms":
            bases, terms = (args[0],), args[1]
        else:
            f = args[0]
            bases, terms = (f.basis,), f.terms
            if qual == "ring.convert":
                bases = () if args[1] == f.basis else (f.basis, args[1])
        degrees = {sum(lam) for lam in terms}
    except (AttributeError, IndexError, TypeError):
        return set()
    return {(b, d) for b in bases if b != "p" for d in degrees}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [qualname, start, end, parent index, cold]
        self._stack: list = []
        self._cold_depth = 0
        self._seen_pairs: set = set()
        self._patches: list = []
        self.absent: list = []

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, qual, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        cold_capable = qual in COLD_NAMES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cold = False
            if cold_capable and not self._cold_depth:
                new = _pairs(qual, args) - self._seen_pairs
                if new:
                    self._seen_pairs |= new
                    cold = True
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self._cold_depth += cold
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._cold_depth -= cold
                stack.pop()
                spans[idx] = [qual, t0, t1, parent, cold]

        return wrapper

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"symfunc.{layer}")
            except ImportError:
                self.absent.append(layer)
        replaced: dict = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{name}", obj)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        # module attributes, and the copies other modules imported by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symfunc" or mod_name.startswith("symfunc.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, name, wrapper)
        for qual in COLD_NAMES + (INVERT, SOLVE):
            if not self._installed(qual):
                self.absent.append(qual)

    def _wrap_class(self, qual, cls) -> None:
        for name, attr in list(vars(cls).items()):
            explicit_init = name == "__init__" and not dataclasses.is_dataclass(cls)
            if name.startswith("_") and not explicit_init:
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(f"{qual}.{name}", attr.__func__)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(f"{qual}.{name}", attr))

    def _installed(self, qual) -> bool:
        layer, _, rest = qual.partition(".")
        obj = sys.modules.get(f"symfunc.{layer}")
        for part in rest.split("."):
            obj = inspect.getattr_static(obj, part, None) if obj is not None else None
        func = getattr(obj, "__func__", obj)
        return getattr(func, "__wrapped__", None) is not None

    def take(self) -> list:
        """The spans recorded since the last call, with parent indices
        relative to that list; call between operations."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()


# --- aggregation ---------------------------------------------------------------


def empty_layer_metrics() -> dict:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_ms"] = 0.0
    out.update({"ring.cold_calls": 0, "ring.cold_ms": 0.0,
                "linalg.invert_ms": 0.0, "linalg.solve_ms": 0.0})
    return out


def add_spans(metrics: dict, spans: list, factor: float) -> None:
    """Add one operation's spans to the per-layer totals. ``factor`` is the
    operation's calibration factor, applied to every span inside it."""
    child_time = [0.0] * len(spans)
    for qual, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (qual, t0, t1, parent, cold) in enumerate(spans):
        layer = qual.split(".", 1)[0]
        dur_ms = (t1 - t0) * factor * 1000
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.self_ms"] += dur_ms - child_time[i] * factor * 1000
        if cold:
            metrics["ring.cold_calls"] += 1
            metrics["ring.cold_ms"] += dur_ms
        if qual == INVERT:
            metrics["linalg.invert_ms"] += dur_ms
        elif qual == SOLVE:
            metrics["linalg.solve_ms"] += dur_ms
