"""Telemetry subsystem: cycle-level tracing, metrics and profiling.

Layering (see docs/architecture.md §10):

* :mod:`~repro.telemetry.events` — the typed event taxonomy and the
  :class:`Tracer` facade cores emit through (``NULL_TRACER`` when
  tracing is off: one attribute check, zero other cost);
* :mod:`~repro.telemetry.sinks` — where events go (null, ring buffer,
  streaming JSONL, tee);
* :mod:`~repro.telemetry.record` — the flat per-run record that
  aggregating (folding) sinks consume instead of events;
* :mod:`~repro.telemetry.metrics` — bounded aggregation: counters,
  histograms, adaptive interval timeseries, and the per-cell
  :class:`MetricsSink` summaries the sweep engine attaches;
* :mod:`~repro.telemetry.export` — Chrome trace-event (Perfetto) and
  Konata-style pipeline-view exporters;
* :mod:`~repro.telemetry.profile` — the stall-attribution profiler
  behind ``repro profile``.
"""

from .events import NULL_TRACER, Event, EventKind, NullTracer, Tracer
from .export import chrome_trace, render_pipeview, write_chrome_trace
from .metrics import (Histogram, IntervalSeries, MetricsRegistry,
                      MetricsSink)
from .profile import StallProfileSink, profile_model, render_profile
from .record import FoldingSink, RunRecord
from .sinks import (JsonlSink, NullSink, RingBufferSink, TeeSink,
                    TelemetrySink)

__all__ = [
    "Event", "EventKind", "FoldingSink", "Histogram", "IntervalSeries",
    "JsonlSink", "MetricsRegistry", "MetricsSink", "NULL_TRACER",
    "NullSink", "NullTracer", "RingBufferSink", "RunRecord",
    "StallProfileSink", "TeeSink", "TelemetrySink", "Tracer",
    "chrome_trace", "profile_model", "render_pipeview", "render_profile",
    "write_chrome_trace",
]
