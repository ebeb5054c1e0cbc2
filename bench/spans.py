"""Spans around the calls into permclosure's public functions.

The tracer patches every module namespace of the package that binds a
wrapped function, so a call is seen whichever name it goes through
(``cached_orbit_partition`` is reached both as ``permclosure.tuples``'s
and as ``permclosure.closure``'s global, for instance).  Each span's self
time is its duration minus the time its child spans cover; a layer's self
time is the sum over the spans of the functions its module defines.

Spans live only in memory, as per-function aggregates; nothing inside the
package changes.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "permclosure"

# Modules whose public functions are wrapped.  ``budgets`` and ``errors``
# do no work of their own, and ``budgets.resolve`` runs on nearly every call.
LAYERS = ("perm", "tuples", "closure", "classify", "subgroups", "catalog", "data", "cli")

# Per-element helpers: called up to millions of times per run, so wrapping
# them would make the trace cost several times the work it measures.
PER_ELEMENT = frozenset({
    "perm.identity", "perm.compose", "perm.inverse", "perm.conjugate", "perm.sign",
    "perm.extend_degree", "perm.shift_perm", "perm.restrict_to", "perm.parse_perm",
    "perm.format_perm", "tuples.act_tuple", "tuples.act_points",
})

# Class methods wrapped alongside the module-level functions.
METHODS = (("perm", "PermGroup", "from_elements"),)


@dataclass
class FuncStats:
    """Aggregates of one wrapped function's spans."""

    calls: int = 0
    self_s: float = 0.0
    errors: dict[str, int] = field(default_factory=dict)
    # calls whose span tree reached none of the function's probe targets
    hits: int = 0


class _Frame:
    __slots__ = ("name", "start", "child_s", "reached")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.reached: set[str] = set()


class Tracer:
    """Times nested calls and keeps per-function aggregates.

    ``probes`` maps a function name to the names whose absence below one of
    its spans marks the call as a cache hit.  ``observers`` maps a function
    name to callbacks run on each value it returns.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        probes: dict[str, frozenset[str]] | None = None,
    ):
        self.clock = clock
        self.stats: dict[str, FuncStats] = {}
        self.layer_of: dict[str, str] = {}
        self.probes = dict(probes or {})
        self._targets = frozenset().union(*self.probes.values())
        self.observers: dict[str, list[Callable[[object], None]]] = {}
        self.spans = 0
        self._stack: list[_Frame] = []

    def observe(self, name: str, callback: Callable[[object], None]) -> None:
        self.observers.setdefault(name, []).append(callback)

    def begin(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame, error: BaseException | None = None) -> None:
        duration = self.clock() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        stats = self.stats.get(frame.name)
        if stats is None:
            stats = self.stats[frame.name] = FuncStats()
        stats.calls += 1
        stats.self_s += duration - frame.child_s
        self.spans += 1
        if error is not None:
            kind = type(error).__name__
            stats.errors[kind] = stats.errors.get(kind, 0) + 1
        probe = self.probes.get(frame.name)
        if probe is not None and not frame.reached & probe:
            stats.hits += 1
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            if frame.reached:
                parent.reached |= frame.reached
            if frame.name in self._targets:
                parent.reached.add(frame.name)

    def wrap(self, func: Callable, name: str, layer: str) -> Callable:
        """A wrapper that records one span per call and returns func's result."""
        self.layer_of[name] = layer
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.end(frame, exc)
                raise
            tracer.end(frame)
            for callback in tracer.observers.get(name, ()):
                callback(result)
            return result

        return wrapper

    # -- aggregates

    def self_s(self, names) -> float:
        return sum(self.stats[n].self_s for n in names if n in self.stats)

    def calls(self, names) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def errors(self, names, kind: str) -> int:
        return sum(self.stats[n].errors.get(kind, 0) for n in names if n in self.stats)

    def hits(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.hits if stats else 0

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stats in self.stats.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + stats.self_s
        return out


def public_functions(module, layer: str) -> dict[str, Callable]:
    """The module's public callables defined in the module itself, by span name."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for attr in names:
        value = getattr(module, attr, None)
        if (
            callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
            and f"{layer}.{attr}" not in PER_ELEMENT
        ):
            out[f"{layer}.{attr}"] = value
    return out


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions at every binding inside the package.

    The package must already be imported.  Returns a function that puts
    every original back.
    """
    modules = {
        name: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }
    wrappers: dict[int, Callable] = {}
    for layer in LAYERS:
        module = modules.get(f"{PACKAGE}.{layer}")
        if module is None:
            continue
        for name, func in public_functions(module, layer).items():
            wrappers[id(func)] = tracer.wrap(func, name, layer)
    undo: list[tuple[object, str, object]] = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if isinstance(raw, classmethod):
            name = f"{layer}.{cls_name}.{meth}"
            undo.append((cls, meth, raw))
            setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, name, layer)))

    def restore() -> None:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return restore
