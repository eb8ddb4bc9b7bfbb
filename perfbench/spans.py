"""Spans around the calls into each layer, recorded from outside the program.

A :class:`Hook` names the module attributes through which callers reach one
public function (for example ``repro.sim.runner.g_txallo``, the name
``allocate`` calls). :class:`Patches` swaps each of them for a wrapper for the
duration of a ``with`` block and puts the original back afterwards. A
wrapper does up to two things:

- with a :class:`Tracer`, it records a span (name, start, end, parent);
- with an ``observe`` callback, it hands the call's arguments and result
  to the benchmark, which uses them for correctness checks and counters.

Hooks without ``observe`` are installed only when tracing, so an untraced
run executes the program's own code plus a handful of observe calls.

A target whose module or attribute no longer exists is recorded in
``Patches.absent`` instead of failing, so a refactor that removes a patch
point shows up as a missing layer in the report, not as a crash.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; single-threaded, like the code it times."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.seconds - c
        return out

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]


Observer = Callable[[tuple, dict, object], None]


@dataclass
class Hook:
    """One public function, reached through ``targets`` (module, attribute)."""

    span: str
    targets: tuple[tuple[str, str], ...]
    observe: Observer | None = None


@dataclass
class Patches:
    """Install hooks for a ``with`` block; restore the originals on exit."""

    hooks: list[Hook]
    tracer: Tracer | None = None
    absent: list[str] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> Patches:
        for hook in self.hooks:
            if self.tracer is None and hook.observe is None:
                continue
            for mod_name, attr in hook.targets:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    mod = None
                orig = getattr(mod, attr, None)
                if not callable(orig):
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(hook, orig))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer, observe = self.tracer, hook.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.call(hook.span, fn, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper
