"""One flat telemetry record per traced run.

Aggregating consumers — :class:`~repro.telemetry.metrics.MetricsSink`
and :class:`~repro.telemetry.profile.StallProfileSink` — never look at
an individual event: they sum counts, bin issues and commits over the
cycle axis, and total stall and mode spans.  A :class:`RunRecord` holds
exactly that, in flat lists a core can append to without building an
:class:`~repro.telemetry.events.Event` per occurrence:

* counts per event kind (fetches, restarts, result-store hits) and
  cache misses by serving level;
* issue and commit counts binned at ``interval`` cycles — the base
  interval of the consuming :class:`~repro.telemetry.metrics.
  IntervalSeries`, which coarsens them at fold time (exact, because
  the counts are additive), so memory grows with cycles / interval,
  not with events;
* coalesced stall spans ``(category, pc, start, cycles)``: a charge
  that continues the open span with the same (category, pc) extends
  it, which matches the tracer's span coalescing exactly because every
  cycle is charged exactly once;
* mode spans ``(mode, start, cycles)``;
* ``last_cycle``, the latest cycle any event describes.

The record's recording methods share the :class:`~repro.telemetry.
events.Tracer` signatures, so a tracer over a folding sink binds them
directly, and the columnar kernels write the bins and counts inline.
:meth:`RunRecord.add` adapts one :class:`Event` for sinks fed by
``emit``.  Sinks fold a finished record with ``fold(record)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..pipeline.stats import StallCategory
from .events import Event, EventKind
from .sinks import TelemetrySink

#: Default cycle-bin width, shared with ``MetricsSink``'s series.
DEFAULT_INTERVAL = 1024

_EXECUTION = StallCategory.EXECUTION


class RunRecord:
    """Counts, cycle bins and spans of one traced run."""

    __slots__ = ("interval", "fetches", "restarts", "rs_hits",
                 "issue_bins", "commit_bins", "misses", "spans", "modes",
                 "last_cycle", "_cat", "_pc", "_start", "_end", "_mode",
                 "_mode_start")

    def __init__(self, interval: int = DEFAULT_INTERVAL):
        self.interval = interval
        self.fetches = 0
        self.restarts = 0
        self.rs_hits = 0
        #: Issues / commits per ``interval`` cycles; bin ``i`` covers
        #: cycles ``[i * interval, (i + 1) * interval)``.  Both lists
        #: always have the same length (see :meth:`grow`).
        self.issue_bins: List[int] = []
        self.commit_bins: List[int] = []
        #: Serving level -> L1-missing demand accesses.
        self.misses: Dict[str, int] = {}
        #: Closed stall spans: (category, pc, start, cycles).
        self.spans: List[Tuple[StallCategory, int, int, int]] = []
        #: Closed mode spans: (mode, start, cycles).
        self.modes: List[Tuple[str, int, int]] = []
        self.last_cycle = 0
        # Open stall span [_start, _end) and open mode span.
        self._cat: Optional[StallCategory] = None
        self._pc = -1
        self._start = 0
        self._end = 0
        self._mode: Optional[str] = None
        self._mode_start = 0

    # -- cycle bins -------------------------------------------------------

    def grow(self, index: int) -> None:
        """Extend both bin lists (in place) to cover bin ``index``."""
        extra = [0] * (index + 1 - len(self.commit_bins))
        self.issue_bins.extend(extra)
        self.commit_bins.extend(extra)

    # -- Tracer-compatible recording --------------------------------------

    def fetch(self, cycle: int, seq: int, pc: int) -> None:
        self.fetches += 1
        if cycle > self.last_cycle:
            self.last_cycle = cycle

    def issue(self, cycle: int, seq: int, pc: int, mode: str = "") -> None:
        index = cycle // self.interval
        if index >= len(self.issue_bins):
            self.grow(index)
        self.issue_bins[index] += 1
        if cycle > self.last_cycle:
            self.last_cycle = cycle

    def commit(self, cycle: int, seq: int, pc: int) -> None:
        index = cycle // self.interval
        if index >= len(self.commit_bins):
            self.grow(index)
        self.commit_bins[index] += 1
        if cycle > self.last_cycle:
            self.last_cycle = cycle

    def restart(self, cycle: int, seq: int, pc: int) -> None:
        self.restarts += 1
        if cycle > self.last_cycle:
            self.last_cycle = cycle

    def rs_hit(self, cycle: int, seq: int, pc: int, mode: str = "") -> None:
        self.rs_hits += 1
        if cycle > self.last_cycle:
            self.last_cycle = cycle

    def cache_miss(self, cycle: int, seq: int, pc: int, level: str) -> None:
        self.misses[level] = self.misses.get(level, 0) + 1
        if cycle > self.last_cycle:
            self.last_cycle = cycle

    def charge(self, cycle: int, category: StallCategory, seq: int = -1,
               pc: int = -1, cycles: int = 1) -> None:
        """Charge ``cycles`` cycles from ``cycle`` on; execution is free."""
        if category is _EXECUTION:
            return
        if category is self._cat and pc == self._pc and cycle == self._end:
            self._end = cycle + cycles
            return
        if self._cat is not None:
            self._close_span()
        self._cat = category
        self._pc = pc
        self._start = cycle
        self._end = cycle + cycles

    def _close_span(self) -> None:
        end = self._end
        self.spans.append((self._cat, self._pc, self._start,
                           end - self._start))
        if end > self.last_cycle:
            self.last_cycle = end
        self._cat = None

    def mode(self, cycle: int, mode: str) -> None:
        """The pipeline occupies ``mode`` from ``cycle`` on.

        Calls may come every cycle (the scalar loop) or only at
        transitions (the kernel); a second call at the same cycle
        replaces the first, as the per-cycle tracer would observe.
        """
        if mode == self._mode:
            return
        if self._mode is not None:
            self._close_mode(cycle)
        self._mode = mode
        self._mode_start = cycle

    def _close_mode(self, cycle: int) -> None:
        start = self._mode_start
        if cycle > start:
            self.modes.append((self._mode, start, cycle - start))
            if start > self.last_cycle:
                self.last_cycle = start

    def finish(self, cycle: int) -> None:
        """Close the open stall and mode spans at end of simulation."""
        if self._cat is not None:
            self._close_span()
        if self._mode is not None:
            self._close_mode(cycle)
            self._mode = None

    # -- Event adapter ----------------------------------------------------

    def add(self, event: Event) -> None:
        """Fold one already-built :class:`Event` into the record."""
        kind = event.kind
        cycle = event.cycle
        if kind is EventKind.FETCH:
            self.fetch(cycle, event.seq, event.pc)
        elif kind is EventKind.ISSUE:
            self.issue(cycle, event.seq, event.pc)
        elif kind is EventKind.COMMIT:
            self.commit(cycle, event.seq, event.pc)
        elif kind is EventKind.STALL_END:
            self.spans.append((event.category, event.pc,
                               cycle - event.cycles, event.cycles))
        elif kind is EventKind.MODE:
            self.modes.append((event.mode, cycle, event.cycles))
        elif kind is EventKind.RESTART:
            self.restarts += 1
        elif kind is EventKind.RS_HIT:
            self.rs_hits += 1
        elif kind is EventKind.CACHE_MISS:
            self.misses[event.level] = self.misses.get(event.level, 0) + 1
        # STALL_BEGIN carries nothing its STALL_END does not.
        if cycle > self.last_cycle:
            self.last_cycle = cycle


class FoldingSink(TelemetrySink):
    """Base for aggregating sinks: everything reaches them as a record.

    A :class:`~repro.telemetry.events.Tracer` over a folding sink writes
    a :class:`RunRecord` and calls :meth:`fold` once at finish.  Events
    that arrive through :meth:`emit` instead (a ``TeeSink`` fan-out, a
    hand-fed stream) go into a pending record that :meth:`close` — or
    the sink's own accessors — fold, so aggregation lives only in
    :meth:`fold`.
    """

    #: Cycle-bin width of the records this sink folds.
    interval = DEFAULT_INTERVAL

    def __init__(self):
        super().__init__()
        self._pending: Optional[RunRecord] = None

    def emit(self, event: Event) -> None:
        if self._pending is None:
            self._pending = RunRecord(self.interval)
        self._pending.add(event)

    def close(self) -> None:
        if self._pending is not None:
            record, self._pending = self._pending, None
            self.fold(record)

    def fold(self, record: RunRecord) -> None:
        raise NotImplementedError
