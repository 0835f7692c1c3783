"""In-memory spans around public callables, installed from outside.

A :class:`Tracer` replaces each probed attribute (a method on a class, or
a function as bound in a module) with a wrapper that records one
:class:`Span` per call: name, start, end, the span that was open on the
same thread when the call began, the root span of that call tree, and
the tracer's run id.  :meth:`Tracer.uninstall` puts the original
attributes back exactly, so code that runs untraced carries no wrapper.

A probe may also read counts off the call: ``count(args, kwargs,
result)`` returns a mapping of counter name to number, which the tracer
sums.  That is how the benchmark takes work counts from the values the
program already returns (``PrefetchStats``, ``SimulationStats``) without
touching the program.

:func:`self_seconds` gives each span's self time: its duration minus the
part of its interval that its child spans cover.  A method that calls
its parent class's version through ``super()`` is wrapped at both levels;
the inner span is a child of the outer one, so the time is counted once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple


@dataclass(frozen=True)
class Probe:
    """One public callable to wrap.

    Attributes:
        span: span name, ``<layer>.<call>`` (e.g. ``core.prefetcher.simulate``).
        owner: the class or module the attribute lives on.
        attr: attribute name on ``owner``.
        count: optional ``(args, kwargs, result) -> {name: number}``.
    """

    span: str
    owner: object
    attr: str
    count: Callable[[tuple, dict, object], dict] | None = None


class Span(NamedTuple):
    """One recorded call (a tuple: cheap to create inside the wrapper)."""

    span_id: int
    parent_id: int | None
    root_id: int
    name: str
    start: float
    end: float
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while its probes are installed.

    Args:
        run_id: identifier stamped on every exported span.
        clock: monotonic clock in seconds.
    """

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._clock = clock
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[tuple[int, int]]] = {}
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, probe: Probe, fn):
        # Everything the wrapper touches is bound to a local up front: the
        # wrapper's own cost lands in the caller's self time.
        clock, ids, stacks, record = (self._clock, self._ids, self._stacks,
                                      self.spans.append)
        name, count, get_ident = probe.span, probe.count, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = get_ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks[thread] = []
            span_id = next(ids)
            parent_id, root_id = stack[-1] if stack else (None, span_id)
            stack.append((span_id, root_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(Span(span_id, parent_id, root_id, name, start, end,
                            thread))
            if count is not None:
                self.add_counts(count(args, kwargs, result))
            return result

        return wrapper

    def add_counts(self, counts: dict) -> None:
        with self._lock:
            for name, value in counts.items():
                self.counts[name] += value

    def install(self, probes: Iterable[Probe]) -> None:
        """Wrap every probe's attribute until :meth:`uninstall`."""
        for probe in probes:
            raw = vars(probe.owner)[probe.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(probe, raw.__func__))
            else:
                wrapped = self._wrap(probe, raw)
            self._saved.append((probe.owner, probe.attr, raw))
            setattr(probe.owner, probe.attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, probes: Iterable[Probe]):
        self.install(probes)
        try:
            yield self
        finally:
            self.uninstall()


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], start: float,
             end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_seconds(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {span.span_id: span.seconds - _covered(children[span.span_id],
                                                  span.start, span.end)
            for span in spans}


def self_seconds_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name."""
    spans = list(spans)
    own = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


def outermost_calls(spans: Iterable[Span]) -> Counter[str]:
    """Calls per span name, not counting a call nested in one of its own
    name (a ``super()`` call into a wrapped base-class method)."""
    spans = list(spans)
    names = {span.span_id: span.name for span in spans}
    return Counter(span.name for span in spans
                   if names.get(span.parent_id) != span.name)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def write_jsonl(path: Path, spans: Iterable[Span], run_id: str) -> None:
    """One JSON object per span, times in seconds of the tracer's clock."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps({
                "run_id": run_id, "span_id": span.span_id,
                "parent_id": span.parent_id, "root_id": span.root_id,
                "name": span.name, "start": span.start, "end": span.end,
                "thread": span.thread}) + "\n")


def write_chrome_trace(path: Path, spans: Iterable[Span], run_id: str) -> None:
    """Chrome trace-event JSON (complete ``X`` events) for Perfetto."""
    spans = list(spans)
    origin = min((span.start for span in spans), default=0.0)
    threads = {tid: index for index, tid in
               enumerate(sorted({span.thread for span in spans}))}
    events = [{
        "name": span.name, "cat": span.name.rsplit(".", 1)[0], "ph": "X",
        "ts": (span.start - origin) * 1e6, "dur": span.seconds * 1e6,
        "pid": 1, "tid": threads[span.thread],
        "args": {"span_id": span.span_id, "parent_id": span.parent_id,
                 "root_id": span.root_id},
    } for span in spans]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"run_id": run_id}}, handle)
