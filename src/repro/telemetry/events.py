"""Typed cycle-level events and the per-core tracing facade.

The telemetry subsystem is event based: instrumented cores describe what
happened each cycle to a :class:`Tracer`, which turns the calls into
:class:`Event` records and hands them to a sink (see
:mod:`repro.telemetry.sinks`).  The taxonomy covers everything the
paper's evidence relies on:

* ``FETCH`` / ``ISSUE`` / ``COMMIT`` — per-instruction pipeline
  milestones (``ISSUE`` carries the issuing mode, so advance-mode
  preexecution is distinguishable from architectural issue);
* ``STALL_BEGIN`` / ``STALL_END`` — spans of consecutive non-execution
  cycles, labelled with the Figure 6 :class:`StallCategory` and the
  static instruction (``pc``) the stall is attributed to;
* ``MODE`` — one event per completed multipass mode span
  (architectural / advance / rally), emitted at the transition;
* ``RESTART`` — an advance-pass rewind (compiler ``RESTART`` or the
  footnote-1 hardware detector);
* ``RS_HIT`` — a result-store merge (advance- or rally-side);
* ``CACHE_MISS`` — an L1-missing demand access, labelled with the
  level that served it.

Aggregating sinks get no events at all: a :class:`Tracer` over a sink
that declares ``fold(record)`` writes one flat
:class:`~repro.telemetry.record.RunRecord` per run instead (the
columnar kernels write it inline) and hands it to ``sink.fold`` at
:meth:`Tracer.finish`.

Overhead contract: a core holds either a live :class:`Tracer`
(``enabled`` is True) or the shared :data:`NULL_TRACER` (``enabled``
False, ``record`` None); every scalar instrumentation site is guarded
by one hoisted ``enabled`` check and every kernel site by one local
``rec is not None`` test, so disabled tracing costs exactly that test
and nothing else.  Per-event tracing costs one :class:`Event` per
occurrence on the scalar loop; aggregating tracing costs a list append
or a bin increment on the production path.  The tier-1 golden tests
pin that stats are bit-identical on every route.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..pipeline.stats import StallCategory


class EventKind(enum.Enum):
    """Every event the instrumented cores can emit."""

    FETCH = "fetch"
    ISSUE = "issue"
    COMMIT = "commit"
    STALL_BEGIN = "stall_begin"
    STALL_END = "stall_end"
    MODE = "mode"
    RESTART = "restart"
    RS_HIT = "rs_hit"
    CACHE_MISS = "cache_miss"


class Event:
    """One telemetry record.

    Attributes:
        kind: the :class:`EventKind`.
        cycle: the cycle the event describes.  Span events use it as
            follows: ``STALL_BEGIN``/``MODE`` carry the span's *start*
            cycle, ``STALL_END`` the span's *end* cycle (exclusive).
        seq: dynamic trace sequence number, ``-1`` when not applicable.
        pc: static instruction index in the program, ``-1`` when not
            applicable.  Stall spans carry the pc of the instruction
            the stall is attributed to (for multipass advance-mode
            cycles that is the *triggering* load, matching the stats
            taxonomy's charging rule).
        category: the Figure 6 stall category (stall events only).
        mode: issuing/occupying mode name (``ISSUE``/``MODE`` events).
        level: memory level that served a miss (``CACHE_MISS`` only).
        cycles: span length for ``STALL_END``/``MODE``, else 1.
    """

    __slots__ = ("kind", "cycle", "seq", "pc", "category", "mode",
                 "level", "cycles")

    def __init__(self, kind: EventKind, cycle: int, seq: int = -1,
                 pc: int = -1, category: Optional[StallCategory] = None,
                 mode: str = "", level: str = "", cycles: int = 1):
        self.kind = kind
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.category = category
        self.mode = mode
        self.level = level
        self.cycles = cycles

    def to_dict(self) -> dict:
        """Compact JSON-able rendering (omits inapplicable fields)."""
        record = {"kind": self.kind.value, "cycle": self.cycle}
        if self.seq >= 0:
            record["seq"] = self.seq
        if self.pc >= 0:
            record["pc"] = self.pc
        if self.category is not None:
            record["category"] = self.category.value
        if self.mode:
            record["mode"] = self.mode
        if self.level:
            record["level"] = self.level
        if self.cycles != 1:
            record["cycles"] = self.cycles
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.to_dict()!r})"


class Tracer:
    """Per-core event constructor with span bookkeeping.

    Cores call one method per interesting occurrence; the tracer
    coalesces consecutive same-category, same-pc stall charges into
    spans and consecutive same-mode cycles into mode spans, so sinks
    see clean begin/end pairs instead of one event per stalled cycle.

    Routing by sink capability: when the sink declares
    ``fold(record)`` (an aggregating sink, see
    :class:`~repro.telemetry.record.FoldingSink`), no :class:`Event` is
    built at all — the tracer's methods are the methods of a
    :class:`~repro.telemetry.record.RunRecord` (``self.record``),
    the columnar kernels write that record inline, and :meth:`finish`
    hands it to ``sink.fold``.  Any other sink receives the event
    stream below; ``record`` is then ``None``.
    """

    enabled = True

    def __init__(self, sink):
        self.sink = sink
        self._finished = False
        self.record = None
        if callable(getattr(sink, "fold", None)):
            # Deferred: record.py imports this module.
            from .record import DEFAULT_INTERVAL, RunRecord
            record = self.record = RunRecord(
                getattr(sink, "interval", DEFAULT_INTERVAL))
            self.fetch = record.fetch
            self.issue = record.issue
            self.commit = record.commit
            self.restart = record.restart
            self.rs_hit = record.rs_hit
            self.cache_miss = record.cache_miss
            self.charge = record.charge
            self.mode = record.mode
            return
        # Open stall span: (category, pc, seq, start, end-exclusive).
        self._stall: Optional[list] = None
        # Open mode span: (mode name, start cycle).
        self._mode: Optional[str] = None
        self._mode_start = 0

    # -- per-instruction milestones -------------------------------------

    def fetch(self, cycle: int, seq: int, pc: int) -> None:
        self.sink.emit(Event(EventKind.FETCH, cycle, seq=seq, pc=pc))

    def issue(self, cycle: int, seq: int, pc: int, mode: str = "") -> None:
        self.sink.emit(Event(EventKind.ISSUE, cycle, seq=seq, pc=pc,
                             mode=mode))

    def commit(self, cycle: int, seq: int, pc: int) -> None:
        self.sink.emit(Event(EventKind.COMMIT, cycle, seq=seq, pc=pc))

    # -- point events ---------------------------------------------------

    def restart(self, cycle: int, seq: int, pc: int) -> None:
        self.sink.emit(Event(EventKind.RESTART, cycle, seq=seq, pc=pc))

    def rs_hit(self, cycle: int, seq: int, pc: int,
               mode: str = "") -> None:
        self.sink.emit(Event(EventKind.RS_HIT, cycle, seq=seq, pc=pc,
                             mode=mode))

    def cache_miss(self, cycle: int, seq: int, pc: int,
                   level: str) -> None:
        self.sink.emit(Event(EventKind.CACHE_MISS, cycle, seq=seq, pc=pc,
                             level=level))

    # -- cycle attribution (stall spans) --------------------------------

    def charge(self, cycle: int, category: StallCategory, seq: int = -1,
               pc: int = -1, cycles: int = 1) -> None:
        """Mirror of ``SimStats.charge`` with attribution context.

        Execution charges close any open stall span; non-execution
        charges open, extend or replace one.
        """
        if category is StallCategory.EXECUTION:
            if self._stall is not None:
                self._end_stall()
            return
        span = self._stall
        if span is not None and span[0] is category and span[1] == pc:
            span[4] = cycle + cycles
            return
        if span is not None:
            self._end_stall()
        self.sink.emit(Event(EventKind.STALL_BEGIN, cycle, seq=seq,
                             pc=pc, category=category))
        self._stall = [category, pc, seq, cycle, cycle + cycles]

    def _end_stall(self) -> None:
        category, pc, seq, start, end = self._stall
        self._stall = None
        self.sink.emit(Event(EventKind.STALL_END, end, seq=seq, pc=pc,
                             category=category, cycles=end - start))

    # -- mode spans -----------------------------------------------------

    def mode(self, cycle: int, mode: str) -> None:
        """Record the mode occupying ``cycle``; coalesces into spans."""
        if mode == self._mode:
            return
        if self._mode is not None and cycle > self._mode_start:
            self.sink.emit(Event(EventKind.MODE, self._mode_start,
                                 mode=self._mode,
                                 cycles=cycle - self._mode_start))
        self._mode = mode
        self._mode_start = cycle

    # -- wrap-up --------------------------------------------------------

    def finish(self, cycle: int) -> None:
        """Close open spans at end of simulation and close the sink."""
        if self._finished:
            return
        self._finished = True
        if self.record is not None:
            self.record.finish(cycle)
            self.sink.fold(self.record)
            self.sink.close()
            return
        if self._stall is not None:
            self._end_stall()
        if self._mode is not None and cycle > self._mode_start:
            self.sink.emit(Event(EventKind.MODE, self._mode_start,
                                 mode=self._mode,
                                 cycles=cycle - self._mode_start))
            self._mode = None
        self.sink.close()


class NullTracer:
    """Disabled tracing: every method is a no-op.

    Cores never call past the ``enabled`` guard, but the methods exist
    so un-guarded call sites degrade to a cheap no-op instead of an
    ``AttributeError``.
    """

    enabled = False
    record = None

    def fetch(self, *args, **kwargs) -> None:
        pass

    def issue(self, *args, **kwargs) -> None:
        pass

    def commit(self, *args, **kwargs) -> None:
        pass

    def restart(self, *args, **kwargs) -> None:
        pass

    def rs_hit(self, *args, **kwargs) -> None:
        pass

    def cache_miss(self, *args, **kwargs) -> None:
        pass

    def charge(self, *args, **kwargs) -> None:
        pass

    def mode(self, *args, **kwargs) -> None:
        pass

    def finish(self, *args, **kwargs) -> None:
        pass


#: Shared do-nothing tracer installed in every un-traced core.
NULL_TRACER = NullTracer()
