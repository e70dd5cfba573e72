"""Layer tracing from outside the program: wrappers, spans and self time.

The layers are the modules of the ``rcexp`` package.  ``install`` wraps every
public function a layer defines and installs the wrapper on every loaded
``rcexp`` module that holds the function under any name, because names bound
at import time (``from .optimize import golden_max``) are separate
references.  A wrapper records a span only where a call crosses a layer
boundary: either the calling frame or the innermost open span belongs to
another module.  Calls inside one layer (``unimodal_max_01`` delegating to
``golden_max``) stay part of the caller's span.

Spans are kept in memory with their parent ids; ``self_ms`` subtracts the
part of a span covered by its direct children.  Evaluation counts come from
the ``evaluations`` field of returned solver results; objectives are never
wrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "modelspec", "probability", "rates", "exponents",
          "optimize", "oracle", "montecarlo")
PACKAGE = "rcexp"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _result_attrs(name: str, args, result) -> dict:
    """Counts read from a call's arguments and returned value."""
    attrs = {}
    evals = getattr(result, "evaluations", None)
    if isinstance(evals, int):
        attrs["evaluations"] = evals
    if getattr(result, "at_upper", False):
        attrs["at_upper"] = True
    flags = getattr(result, "boundary_flags", None)
    if flags is not None:
        attrs["flags"] = sorted(flags)
    if name == "rates.rate_values_batch" and args:
        attrs["laws"] = int(len(args[0]))
    if name == "probability.simplex_grid_arrays" and hasattr(result, "shape"):
        attrs["rows"] = int(result.shape[0])
    per_n = getattr(result, "per_n", None)
    if per_n is not None:
        attrs["trials"] = sum(row.trials for row in per_n)
        attrs["events"] = sum(row.count for row in per_n)
    return attrs


class Tracer:
    """Holds the spans of one traced run and the wrappers that record them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []  # (module, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, func):
        name = f"{layer}.{func.__name__}"
        module_name = f"{PACKAGE}.{layer}"
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            caller = sys._getframe(1).f_globals.get("__name__")
            inner = stack and stack[-1].layer == layer
            if caller == module_name and inner:
                return func(*args, **kwargs)
            with tracer._lock:
                span = Span(len(tracer.spans), stack[-1].id if stack else None,
                            name, 0.0)
                tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.attrs.update(_result_attrs(name, args, result))
            return result

        wrapper.__rcexp_traced__ = func
        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def remove(self) -> None:
        """Restore every original binding; safe to call twice."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end, "attrs": span.attrs,
                }) + "\n")


def wrapped_bindings() -> list:
    """(module, attribute) pairs of loaded rcexp modules that still hold a wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, "__rcexp_traced__"):
                found.append((name, attr))
    return found


def children_of(spans: list) -> dict:
    kids: dict = {}
    for span in spans:
        kids.setdefault(span.parent, []).append(span)
    return kids


def self_ms(spans: list) -> dict:
    """Span id -> duration minus the union of its direct children's intervals."""
    kids = children_of(spans)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(kids.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = max(span.end - span.start - covered, 0.0) * 1e3
    return out
