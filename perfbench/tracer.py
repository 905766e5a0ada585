"""Spans recorded from outside the program, by wrapping module attributes.

A Tracer replaces chosen functions on kakeyalab modules and classes with
wrappers that record one span per call: name, start, end, parent span
and step id, plus counts read from the call's arguments and return
value.  Nothing under src/ changes; `installed()` restores every
attribute when it exits.  The process runs kakeyalab single threaded
(KAKEYA_LAB_THREADS unset), so spans nest as a stack.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable


def cli_module():
    """The module kakeyalab.cli.main.

    `import kakeyalab.cli.main as M` binds the *function* main, which
    kakeyalab.cli re-exports under the submodule's name, so patching
    attributes of that object changes nothing the CLI calls.
    """
    return importlib.import_module("kakeyalab.cli.main")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    step: str | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# A recorder reads counts for one call: (span.counts, args, kwargs, result).
Recorder = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: owner.attr, recorded as span `name`.

    `name` may be a function of the call's arguments, for a function
    whose calls belong to different metrics (e.g. by input type).
    """

    owner: object
    attr: str
    name: str | Callable[[tuple, dict], str]
    record: Recorder | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.step: str | None = None

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.name if isinstance(target.name, str) else target.name(args, kwargs)
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.step)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.record is not None:
                target.record(span.counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for t in targets:
                original = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(c.start, reach)
            if c.end > lo:
                covered += c.end - lo
                reach = c.end
        out.append(s.duration - covered)
    return out


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called `name` with no ancestor of the same name."""
    picked = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            picked.append(s)
    return picked
