"""Spans recorded from outside the program, by wrapping its public functions.

Each probe replaces one attribute -- a module function or a class method --
at the name its callers look it up under (``losses.text_logits``, not
``model.text_logits``, because ``losses`` imports it by name).  A wrapped
call opens a span (name, optional tag, start, end, parent, root), runs the
original, and closes the span.  Spans stay in memory and are written once,
when the run ends.

A span's self time is its duration minus the time its child spans cover;
calls are single-threaded and strictly nested, so that is a plain
subtraction.  Probes are installed around each traced operation and removed
after it, so untraced operations run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    tag: Optional[str]
    start: float
    end: float
    parent: int            # index of the parent span, -1 for a root
    root: int              # index of the root span (itself for a root)


@dataclass(frozen=True)
class Probe:
    """Wrap ``owner.attr`` in a span called ``name``.

    ``tag(args, kwargs)`` labels the span; ``note(tracer, args, kwargs,
    out)`` adds counters after the call, inside a ``trace`` child span so
    the tracer's own work is not charged to the layer or its parent.
    """

    owner: Any
    attr: str
    name: str
    tag: Optional[Callable] = None
    note: Optional[Callable] = None


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.spans: list[Span] = []
        self.root_kinds: dict[int, str] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, name: str, tag: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else idx
        self.spans.append(Span(name, tag, time.perf_counter(), 0.0, parent, root))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    # -- probes ---------------------------------------------------------------
    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = probe.tag(args, kwargs) if probe.tag else None
            idx = tracer._open(probe.name, tag)
            try:
                out = fn(*args, **kwargs)
                if probe.note is not None:
                    j = tracer._open("trace")
                    try:
                        probe.note(tracer, args, kwargs, out)
                    finally:
                        tracer._close(j)
                return out
            finally:
                tracer._close(idx)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probes already installed")
        for probe in self.probes:
            original = getattr(probe.owner, probe.attr)
            self._saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrap(probe, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def traced(self, kind: str, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn`` under probes inside a root span; return (result, seconds)."""
        self.install()
        idx = self._open("root")
        self.root_kinds[idx] = kind
        try:
            out = fn()
        finally:
            self._close(idx)
            self.uninstall()
        span = self.spans[idx]
        return out, span.end - span.start

    # -- aggregation -------------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "tag": s.tag,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "root": s.root,
                                     "kind": self.root_kinds.get(s.root)}) + "\n")
