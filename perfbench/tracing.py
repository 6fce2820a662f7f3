"""Spans around each layer's public entry points, installed from outside.

The package under test is never edited: :meth:`Tracer.wrap` replaces an
attribute (a class's method, an instance's bound method or a module's
function) with a wrapper that records a :class:`Span` and calls the
original, and :meth:`Tracer.restore` puts every original back.

A span is recorded only on a thread that is inside a request
(:meth:`Tracer.request`, or an entry point wrapped with ``root=True``),
and a request is only opened while :attr:`Tracer.enabled` is set, so
untraced requests pay one thread-local lookup per wrapped call.  Spans
are held in memory and written out by :meth:`Tracer.dump` when the run
ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (children may overlap each other when a
layer fans out to threads, so the union is subtracted, not the sum).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call: name, interval, the span that caused it, its request."""

    span_id: int
    name: str
    parent: Optional[int]
    request: int
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Before = Callable[[Span, tuple, dict], None]
After = Callable[[Span, tuple, dict, object], None]


class Tracer:
    """In-memory span recorder with outside-in method wrapping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, bool, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, root: bool) -> Span:
        stack = self._stack()
        with self._id_lock:
            span_id = next(self._ids)
        parent = None if root or not stack else stack[-1]
        span = Span(
            span_id=span_id,
            name=name,
            parent=parent.span_id if parent is not None else None,
            request=parent.request if parent is not None else span_id,
            start=self.clock(),
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextmanager
    def request(self, name: str) -> Iterator[Optional[Span]]:
        """The root span of one request on this thread (no-op while disabled)."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, root=True)
        try:
            yield span
        finally:
            self._close(span)

    # -- installation ------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
        root: bool = False,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before(span, args, kwargs)`` runs ahead of the call and
        ``after(span, args, kwargs, result)`` once it returns; both annotate
        ``span.attrs``.  With ``root=True`` the wrapper opens a request
        of its own while tracing is enabled (server handlers run on
        threads the benchmark does not own).
        """
        original = getattr(owner, attr)
        if isinstance(owner, (type, types.ModuleType)):
            # Shared by every caller in the process: put back by restore().
            # An instance's wrapper dies with the instance, and keeping a
            # reference here would keep every traced engine alive.
            own = vars(owner)
            self._patches.append((owner, attr, attr in own, own.get(attr)))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if root:
                if not tracer.enabled:
                    return original(*args, **kwargs)
            elif not tracer._stack():
                return original(*args, **kwargs)
            span = tracer._open(name, root=root)
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap` of a class or module, newest first."""
        while self._patches:
            owner, attr, had_own, saved = self._patches.pop()
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# -- analysis --------------------------------------------------------------


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    }


def by_request(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Request id -> its spans."""
    grouped: Dict[int, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.request, []).append(span)
    return grouped


def overcommitted_requests(spans: Sequence[Span], slack: float = 1e-6) -> List[int]:
    """Requests whose spans' self times add up to more than the request's wall time."""
    selfs = self_times(spans)
    bad = []
    for request, members in by_request(spans).items():
        roots = [span for span in members if span.span_id == request]
        if not roots:
            continue
        if sum(selfs[span.span_id] for span in members) > roots[0].duration + slack:
            bad.append(request)
    return bad


def max_concurrency(spans: Sequence[Span]) -> int:
    """Most spans open at one instant."""
    events = sorted(
        [(span.start, 1) for span in spans] + [(span.end, -1) for span in spans],
        key=lambda event: (event[0], event[1]),
    )
    open_now = peak = 0
    for _, step in events:
        open_now += step
        peak = max(peak, open_now)
    return peak


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Span name -> calls, total and self seconds, and summed attrs."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.span_id]
        for key, value in span.attrs.items():
            row[key] = row.get(key, 0) + value
    return table
