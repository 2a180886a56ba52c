"""The service wire protocol: JSONL events over chunked HTTP.

The job-event stream reuses the telemetry JSONL convention
(:class:`~repro.telemetry.sinks.JsonlSink`): one JSON object per line,
sorted keys, a ``kind`` discriminator.  Three kinds flow on a job
stream, always in this shape:

``{"kind": "job", "id", "key", "cells", "workers", "wire_version"}``
    First line of every stream: the accepted job, its canonical
    ``job_key`` and the size of its cell grid.

``{"kind": "cell", "workload", "model", "status", "source", "dedup",
"attempts", "duration", "stats"|"error"}``
    One line per resolved cell, in completion order.  ``status`` is
    ``"ok"`` or ``"failed"``; ``source`` records where the result came
    from (``"simulated"`` or ``"cache"``); ``dedup`` is true when this
    job attached to another job's in-flight cell instead of scheduling
    its own.  Successful cells carry the full
    :meth:`~repro.pipeline.stats.SimStats.to_dict` payload — the
    round-trip through :meth:`~repro.pipeline.stats.SimStats.from_dict`
    is bit-identical, which is what lets service results equal a local
    ``repro sweep``.  Failed cells carry the
    :class:`~repro.harness.parallel.CellResult` failure-row schema
    instead: the stringified exception (class-prefixed) and the
    attempt count.

``{"kind": "done", "id", "cells", "simulated", "cache_hits",
"deduped", "failures", "elapsed"}``
    Last line: per-job accounting.  ``simulated + cache_hits +
    deduped == cells`` always holds.

Streams replay from the start for late subscribers, so attaching to a
finished job yields its full history followed by ``done``.
"""

from __future__ import annotations

import json
from typing import Union

from ..harness.parallel import CellResult
from ..pipeline.stats import SimStats

#: Bump on any incompatible change to the event shapes above.
WIRE_VERSION = 1


def encode_line(record: dict) -> bytes:
    """One wire line: compact JSON + newline (telemetry JSONL style)."""
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def decode_line(line: Union[str, bytes]) -> dict:
    """Parse one wire line; rejects anything that is not a kinded event."""
    if isinstance(line, bytes):
        line = line.decode()
    record = json.loads(line)
    if not isinstance(record, dict) or "kind" not in record:
        raise ValueError(f"malformed wire event: {line!r:.120}")
    return record


def cell_event(result: CellResult) -> dict:
    """Render one resolved cell as its wire event."""
    record = {
        "kind": "cell",
        "workload": result.workload,
        "model": result.model,
        "status": "ok" if result.ok else "failed",
        "source": result.source,
        "dedup": result.deduped,
        "attempts": result.attempts,
        "duration": round(result.duration, 6),
    }
    if result.ok:
        record["stats"] = result.stats.to_dict()
    else:
        record["error"] = result.error
    return record


def cell_result_from_event(event: dict) -> CellResult:
    """Rebuild the :class:`CellResult` row a ``cell`` event describes.

    Failure rows come back with the exact schema ``repro sweep``
    reports (exception class in ``error``, retry count in
    ``attempts``), so client-side reports fold it into a
    :class:`~repro.harness.parallel.SweepReport` like ``repro sweep``.
    """
    stats = None
    if event.get("stats") is not None:
        stats = SimStats.from_dict(event["stats"])
    return CellResult(
        workload=event["workload"],
        model=event["model"],
        stats=stats,
        error=event.get("error"),
        attempts=event.get("attempts", 1),
        duration=event.get("duration", 0.0),
        source=event.get("source", "simulated"),
        deduped=bool(event.get("dedup")),
    )


__all__ = ["WIRE_VERSION", "cell_event", "cell_result_from_event",
           "decode_line", "encode_line"]
