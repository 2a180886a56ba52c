"""Metrics registry: counters, histograms and interval timeseries.

Where :mod:`repro.telemetry.sinks` stores *events*, this module
aggregates them into bounded-size summaries that are cheap enough to
collect for every cell of a sweep: plain counters, power-of-two-bucket
histograms, and per-interval timeseries whose resolution adapts (by
interval doubling) so memory stays bounded no matter how long a run is
— the sampling knob the telemetry overhead budget relies on.

:class:`MetricsSink` is the standard consumer: a telemetry sink that
folds a run's :class:`~repro.telemetry.record.RunRecord` into a
registry (no event storage) and renders a JSON-able
:meth:`~MetricsSink.summary` — the per-cell payload the parallel sweep
engine attaches to its report.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..pipeline.stats import StallCategory
from .events import EventKind
from .record import DEFAULT_INTERVAL, FoldingSink, RunRecord


class Histogram:
    """Power-of-two bucketed histogram of non-negative integers.

    Bucket ``i`` counts values in ``(2**(i-1), 2**i]`` (bucket 0 counts
    zeros and ones), so any value range is covered by ~64 buckets.
    """

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max = 0

    def record(self, value: int, n: int = 1) -> None:
        bucket = max(0, int(value) - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        self.count += n
        self.total += value * n
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "mean": round(self.mean, 3),
            "buckets": {f"<={2 ** b}": n
                        for b, n in sorted(self.buckets.items())},
        }


class IntervalSeries:
    """Per-interval counts over the cycle axis, with bounded points.

    ``record(cycle, n)`` adds ``n`` to the interval containing
    ``cycle``.  When a run outgrows ``max_points`` intervals the series
    doubles its interval length and merges adjacent pairs, so the
    memory footprint — and the per-event cost — stays O(max_points)
    regardless of run length, at the price of coarser resolution.
    """

    def __init__(self, interval: int = 1024, max_points: int = 256):
        if interval < 1 or max_points < 2:
            raise ValueError("interval >= 1 and max_points >= 2 required")
        self.interval = interval
        self.max_points = max_points
        self.points: List[int] = []

    def record(self, cycle: int, n: int = 1) -> None:
        index = cycle // self.interval
        while index >= self.max_points:
            self._coarsen()
            index = cycle // self.interval
        while len(self.points) <= index:
            self.points.append(0)
        self.points[index] += n

    def record_span(self, start: int, cycles: int, n: int = 1) -> None:
        """Distribute ``n`` per cycle across ``[start, start+cycles)``."""
        end = start + cycles
        while start < end:
            boundary = (start // self.interval + 1) * self.interval
            chunk = min(end, boundary) - start
            self.record(start, chunk * n)
            start += chunk

    def _coarsen(self) -> None:
        self.interval *= 2
        merged = []
        for i in range(0, len(self.points), 2):
            pair = self.points[i:i + 2]
            merged.append(sum(pair))
        self.points = merged

    def to_dict(self) -> dict:
        return {"interval": self.interval, "points": list(self.points)}


class MetricsRegistry:
    """Named counters, histograms and series for one traced run."""

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, IntervalSeries] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    def timeseries(self, name: str, interval: int = 1024,
                   max_points: int = 256) -> IntervalSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = IntervalSeries(interval,
                                                        max_points)
        return series

    def snapshot(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {name: h.to_dict() for name, h
                           in sorted(self.histograms.items())},
            "series": {name: s.to_dict() for name, s
                       in sorted(self.series.items())},
        }


class MetricsSink(FoldingSink):
    """Aggregate a run's :class:`~repro.telemetry.record.RunRecord`
    into a :class:`MetricsRegistry`.

    Collected per run:

    * ``events.<kind>`` counters for every event kind;
    * ``stall_cycles.<category>`` counters and a ``stall_span_cycles``
      histogram (one sample per stall span);
    * ``mode_cycles.<mode>`` occupancy counters;
    * ``cache_miss.<level>`` counters;
    * ``commits`` and ``issues`` interval series (per-interval IPC is
      ``points[i] / interval``) and a ``mode.<mode>`` occupancy series.

    The summary is identical whether the run reached the sink as a
    record (a :class:`~repro.telemetry.events.Tracer` over this sink)
    or as an event stream through :meth:`emit`.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 interval: int = DEFAULT_INTERVAL, max_points: int = 256):
        super().__init__()
        self.registry = registry or MetricsRegistry()
        self.interval = interval
        self._max_points = max_points
        self.last_cycle = 0

    def _series(self, name: str) -> IntervalSeries:
        return self.registry.timeseries(name, self.interval,
                                        self._max_points)

    def fold(self, record: RunRecord) -> None:
        reg = self.registry
        spans = record.spans
        modes = record.modes
        misses = record.misses
        for kind, n in (
                (EventKind.FETCH, record.fetches),
                (EventKind.ISSUE, sum(record.issue_bins)),
                (EventKind.COMMIT, sum(record.commit_bins)),
                (EventKind.STALL_BEGIN, len(spans)),
                (EventKind.STALL_END, len(spans)),
                (EventKind.MODE, len(modes)),
                (EventKind.RESTART, record.restarts),
                (EventKind.RS_HIT, record.rs_hits),
                (EventKind.CACHE_MISS, sum(misses.values()))):
            if n:
                reg.count(f"events.{kind.value}", n)
        if record.last_cycle > self.last_cycle:
            self.last_cycle = record.last_cycle
        # Bin i starts at cycle i * interval; recording its total there
        # lands it in the same (possibly coarsened) interval as each of
        # its events, and coarsening depends only on the latest bin.
        interval = record.interval
        for name, bins in (("commits", record.commit_bins),
                           ("issues", record.issue_bins)):
            series = None
            for i, n in enumerate(bins):
                if n:
                    if series is None:
                        series = self._series(name)
                    series.record(i * interval, n)
        if spans:
            by_category: Dict[StallCategory, int] = {}
            lengths = Counter()
            for category, _pc, _start, cycles in spans:
                by_category[category] = \
                    by_category.get(category, 0) + cycles
                lengths[cycles] += 1
            for category, cycles in by_category.items():
                reg.count(f"stall_cycles.{category.value}", cycles)
            hist = reg.histogram("stall_span_cycles")
            for cycles, n in lengths.items():
                hist.record(cycles, n)
        for mode, start, cycles in modes:
            reg.count(f"mode_cycles.{mode}", cycles)
            self._series(f"mode.{mode}").record_span(start, cycles)
        for level, n in misses.items():
            reg.count(f"cache_miss.{level}", n)

    def summary(self) -> dict:
        """JSON/pickle-safe per-run payload (sweep cell attachment)."""
        self.close()                  # fold any events fed through emit
        payload = self.registry.snapshot()
        payload["last_cycle"] = self.last_cycle
        return payload
