"""Spans around the public functions of the mspc modules, recorded from outside.

The benchmark does not edit the program.  It replaces a function, in every
loaded ``mspc`` module namespace that holds a reference to it, by a wrapper,
and puts the original back on :meth:`Patcher.restore`.  Patching each
namespace matters because modules import names directly
(``from .solver import solve`` in ``validate``); a call from inside the
defining module goes through that module's own namespace and is caught too.

``linalg`` functions are patched only where the other modules refer to them,
so they are timed where ``ident``, ``ocp``, ``system`` and ``validate`` call
them, not inside ``linalg``'s own iterations.

Spans stay in memory as (name, start, end, parent, attrs).  The span stack
is a plain list: at the defaults (``MSPC_THREADS`` unset) every mspc call
runs on the calling thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "system", "ident", "ocp", "solver", "validate", "linalg")
_CALLER_ONLY_LAYERS = ("linalg",)


def mspc_modules() -> list:
    """The loaded mspc modules, in a fixed order."""
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "mspc" or name.startswith("mspc."))
    ]


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {
        name: fn for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


class Patcher:
    """Swaps functions in mspc module namespaces and restores them in reverse order."""

    def __init__(self):
        self._saved: list = []

    def replace(self, original, replacement, skip_modules: tuple = ()) -> None:
        """Point every namespace reference to ``original`` at ``replacement``."""
        for module in mspc_modules():
            if module.__name__ in skip_modules:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


class Recorder:
    """Keeps (name, args, kwargs, result) of selected calls for the correctness checks.

    It reads no clock, so untraced runs can use it without timing overhead
    beyond one list append per recorded call.
    """

    def __init__(self):
        self.calls: list = []

    def install(self, patcher: Patcher, functions: dict) -> None:
        for name, fn in functions.items():
            patcher.replace(fn, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result

        return recorded

    def of(self, name: str) -> list:
        return [(args, kwargs, result) for n, args, kwargs, result in self.calls if n == name]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: "int | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]


class Tracer:
    """Records one span per wrapped call; ``counters`` add attributes from results.

    ``counters`` maps a span name to ``f(args, kwargs, result) -> dict``; it
    runs after the span has closed, so its cost lands in the parent's self time.
    """

    def __init__(self, counters: "dict | None" = None, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.units: list[tuple[int, int]] = []   # (root span index, end index)
        self._stack: list[int] = []
        self._counters = counters or {}
        self._clock = clock
        self.active = True

    def install(self, patcher: Patcher, modules: dict) -> None:
        """Wrap the public functions of each ``{layer: module}``."""
        for layer, module in modules.items():
            skip = (module.__name__,) if layer in _CALLER_ONLY_LAYERS else ()
            for name, fn in public_functions(module).items():
                span_name = f"{layer}.{name}"
                patcher.replace(fn, self._wrap(span_name, fn), skip_modules=skip)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._clock(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.attrs = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def unit(self):
        """Root span of one benchmark unit; its self time is the harness's own."""
        root = len(self.spans)
        span = self._open("bench.unit")
        try:
            yield span
        finally:
            self._close(span)
            self.units.append((root, len(self.spans)))

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (used by the correctness checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True


def self_times(spans: "list[Span]") -> list[float]:
    """Span duration minus the time its direct children cover.

    Children run inside their parent one after another on one thread, so the
    time they cover is the sum of their durations.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own
