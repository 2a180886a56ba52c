"""Trace exporters: Chrome trace-event JSON and a Konata-style pipeview.

Both exporters consume a list of :class:`~repro.telemetry.events.Event`
records (typically from a
:class:`~repro.telemetry.sinks.RingBufferSink`) after the run finishes.

* :func:`chrome_trace` produces the Trace Event Format consumed by
  Perfetto / ``chrome://tracing``: mode and stall spans as complete
  (``"X"``) events on their own tracks, restarts / result-store merges
  / cache misses as instants.  One simulated cycle maps to one
  microsecond of trace time.
* :func:`render_pipeview` produces a Konata-style text pipeline view:
  one row per dynamic instruction, one column per cycle, with
  per-stage milestone characters — the quickest way to *see* advance
  passes overlapping an architectural stall.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..isa.trace import Trace
from .events import Event, EventKind

#: Track (``tid``) layout of the Chrome trace.
_TID_MODE = 1
_TID_STALL = 2
_TID_EVENTS = 3
_TID_MEMORY = 4


def chrome_trace(events: Iterable[Event], model: str = "",
                 workload: str = "") -> dict:
    """Convert events to a Trace Event Format document (a JSON dict)."""
    name = "/".join(p for p in (workload, model) if p) or "repro"
    trace_events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": name}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": _TID_MODE,
         "args": {"name": "mode"}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": _TID_STALL,
         "args": {"name": "stalls"}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": _TID_EVENTS,
         "args": {"name": "events"}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": _TID_MEMORY,
         "args": {"name": "memory"}},
    ]
    for event in events:
        kind = event.kind
        if kind is EventKind.MODE:
            trace_events.append({
                "ph": "X", "cat": "mode", "name": event.mode,
                "pid": 1, "tid": _TID_MODE,
                "ts": event.cycle, "dur": event.cycles,
            })
        elif kind is EventKind.STALL_END:
            trace_events.append({
                "ph": "X", "cat": "stall",
                "name": event.category.value,
                "pid": 1, "tid": _TID_STALL,
                "ts": event.cycle - event.cycles, "dur": event.cycles,
                "args": {"pc": event.pc, "seq": event.seq},
            })
        elif kind is EventKind.RESTART:
            trace_events.append({
                "ph": "i", "cat": "multipass", "name": "restart",
                "pid": 1, "tid": _TID_EVENTS, "ts": event.cycle,
                "s": "t", "args": {"pc": event.pc, "seq": event.seq},
            })
        elif kind is EventKind.RS_HIT:
            trace_events.append({
                "ph": "i", "cat": "multipass", "name": "rs_hit",
                "pid": 1, "tid": _TID_EVENTS, "ts": event.cycle,
                "s": "t",
                "args": {"pc": event.pc, "seq": event.seq,
                         "mode": event.mode},
            })
        elif kind is EventKind.CACHE_MISS:
            trace_events.append({
                "ph": "i", "cat": "memory",
                "name": f"miss:{event.level}",
                "pid": 1, "tid": _TID_MEMORY, "ts": event.cycle,
                "s": "t", "args": {"pc": event.pc, "seq": event.seq},
            })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": {"model": model, "workload": workload,
                          "time_unit": "1 cycle = 1us"}}


#: Pipeview milestone characters, in increasing display precedence.
_CHAR_FETCH = "F"
_CHAR_ADVANCE = "A"      # advance-mode (pre)execution
_CHAR_EXECUTE = "E"      # architectural/rally execution
_CHAR_MERGE = "M"        # result-store merge
_CHAR_COMMIT = "C"
_PRECEDENCE = {_CHAR_FETCH: 0, _CHAR_ADVANCE: 1, _CHAR_EXECUTE: 2,
               _CHAR_MERGE: 3, _CHAR_COMMIT: 4}


class _Row:
    __slots__ = ("seq", "pc", "marks")

    def __init__(self, seq: int, pc: int):
        self.seq = seq
        self.pc = pc
        self.marks = {}

    def mark(self, cycle: int, char: str) -> None:
        current = self.marks.get(cycle)
        if current is None or _PRECEDENCE[char] > _PRECEDENCE[current]:
            self.marks[cycle] = char


def render_pipeview(events: Sequence[Event], trace: Trace,
                    max_cycles: int = 240,
                    max_rows: int = 200) -> str:
    """Render a Konata-style text pipeline diagram.

    One row per dynamic instruction (``seq``), one column per cycle.
    ``F`` fetch, ``A`` advance (pre)execution, ``E`` architectural or
    rally execution, ``M`` result-store merge, ``C`` commit; ``.``
    fills the in-flight window between the first and last milestone.
    The cycle window starts at the first milestone in ``events`` (so a
    ring-buffered suffix trace renders its own range, not emptiness)
    and is clipped to ``max_cycles`` columns and ``max_rows`` rows
    with an explicit truncation note, so the view stays terminal-sized.
    """
    rows: dict = {}

    def row(seq: int, pc: int) -> _Row:
        entry = rows.get(seq)
        if entry is None:
            entry = rows[seq] = _Row(seq, pc)
        return entry

    last_cycle = 0
    for event in events:
        kind = event.kind
        if event.cycle > last_cycle:
            last_cycle = event.cycle
        if kind is EventKind.FETCH:
            row(event.seq, event.pc).mark(event.cycle, _CHAR_FETCH)
        elif kind is EventKind.ISSUE:
            char = (_CHAR_ADVANCE if event.mode == "advance"
                    else _CHAR_EXECUTE)
            row(event.seq, event.pc).mark(event.cycle, char)
        elif kind is EventKind.RS_HIT:
            row(event.seq, event.pc).mark(event.cycle, _CHAR_MERGE)
        elif kind is EventKind.COMMIT:
            row(event.seq, event.pc).mark(event.cycle, _CHAR_COMMIT)

    base = min((min(r.marks) for r in rows.values() if r.marks),
               default=0)
    width = min(last_cycle + 1 - base, max_cycles)
    instructions = trace.program.instructions
    lines = [
        f"pipeview: {trace.program.name} — {len(rows)} instruction(s), "
        f"{last_cycle + 1} cycle(s)",
        "F=fetch A=advance E=execute M=merge C=commit",
        "",
    ]
    ruler = ["cycle".rjust(5) + " " * 36]
    tick_row = list(" " * width)
    for tick in range(0, width, 10):
        label = str(base + tick)
        for offset, char in enumerate(label):
            if tick + offset < width:
                tick_row[tick + offset] = char
    ruler[0] += "|" + "".join(tick_row)
    lines.extend(ruler)

    clipped_rows = 0
    for seq in sorted(rows):
        if len(lines) - 4 >= max_rows:
            clipped_rows += 1
            continue
        entry_row = rows[seq]
        if seq < len(trace):
            asm = instructions[entry_row.pc].render()
        else:  # pragma: no cover - defensive
            asm = "?"
        if len(asm) > 30:
            asm = asm[:27] + "..."
        cells = list(" " * width)
        marks = {c - base: ch for c, ch in entry_row.marks.items()
                 if c - base < width}
        if marks:
            first, last = min(marks), max(marks)
            for cycle in range(first, last):
                cells[cycle] = "."
            for cycle, char in marks.items():
                cells[cycle] = char
        label = f"{seq:>5} {asm:<35}"
        lines.append(label + "|" + "".join(cells).rstrip())

    notes = []
    if last_cycle + 1 - base > max_cycles:
        notes.append(f"clipped to cycles {base}..{base + max_cycles - 1} "
                     f"of {last_cycle + 1}")
    if clipped_rows:
        notes.append(f"omitted {clipped_rows} later row(s)")
    if notes:
        lines.append("")
        lines.append("note: " + "; ".join(notes))
    return "\n".join(lines) + "\n"


def write_chrome_trace(events: Sequence[Event], stream, model: str = "",
                       workload: str = "") -> None:
    """Serialize :func:`chrome_trace` output to a text stream."""
    import json

    json.dump(chrome_trace(events, model=model, workload=workload),
              stream, indent=1)
    stream.write("\n")


__all__ = ["chrome_trace", "render_pipeview", "write_chrome_trace"]
