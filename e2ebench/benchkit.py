"""Measurement helpers of the end-to-end benchmark: spans, self time,
tail percentiles and failure tallies.

Everything here is pure (no sockets, no repro imports) so the unit
tests in ``test_benchkit.py`` exercise it directly.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    """One timed interval at a layer boundary.  ``request`` is shared by
    every span of one request; ``parent`` is the enclosing span's id."""

    span_id: int
    name: str
    start: float
    end: float
    request: int
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; :meth:`write` dumps them when a run ends.

    Safe to share between threads: ids come from one locked counter and
    ``list.append`` is atomic.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def record(self, name: str, start: float, end: float, request: int,
               parent: Optional[int] = None) -> int:
        span_id = self._next_id()
        self.spans.append(Span(span_id, name, start, end, request, parent))
        return span_id

    @contextmanager
    def span(self, name: str, request: int,
             parent: Optional[int] = None) -> Iterator[int]:
        """Time the ``with`` body as one span; yields the span id so
        nested spans can name it as their parent."""
        span_id = self._next_id()
        start = self.clock()
        try:
            yield span_id
        finally:
            self.spans.append(Span(span_id, name, start, self.clock(),
                                   request, parent))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(asdict(span)) + "\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals are merged, never summed: two children that
    ran concurrently cover their common stretch once."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted((max(lo, s), min(hi, e))
                             for s, e in intervals):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.span_id: span.duration - covered(
                children.get(span.span_id, ()), span.start, span.end)
            for span in spans}


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank
    ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail(samples: list[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not samples or beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


class Tally:
    """Attempted/failed request counts with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, failure: Optional[str]) -> None:
        """Count one attempted request; ``failure`` is ``None`` when it
        passed its oracle, else a short reason."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.reasons[failure] += 1

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
