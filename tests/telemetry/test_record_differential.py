"""Folded telemetry from the kernels equals the per-event scalar stream.

Under an aggregating sink the columnar kernels write a
:class:`~repro.telemetry.record.RunRecord` inline instead of running the
scalar loop and emitting events.  Aggregation is only useful if that
route changes nothing, so for every primary model on every kernel the
default-route summary must equal the one folded from the ``slow=True``
per-event stream: the :class:`MetricsSink` summary (event counts,
stall and mode totals, span histogram, interval series, last cycle) and
the :class:`StallProfileSink` per-site cells, restarts and misses.
"""

import pytest

from repro.harness import MODEL_FACTORIES, TraceCache, run_model
from repro.telemetry import (MetricsSink, StallProfileSink, TelemetrySink,
                             Tracer)
from repro.workloads import ALL_WORKLOADS

MODELS = sorted(MODEL_FACTORIES)
_TRACES = TraceCache(0.05)


def _fold_events(sink, events):
    for event in events:
        sink.emit(event)
    sink.close()
    return sink


def _profile(sink):
    return sink.cells, sink.restarts, sink.cache_misses


@pytest.mark.parametrize("model", MODELS)
def test_folded_record_matches_per_event_stream(model):
    for workload in ALL_WORKLOADS:
        trace = _TRACES.trace(workload)
        stream = TelemetrySink()
        run_model(model, trace, slow=True, tracer=Tracer(stream))

        metrics = MetricsSink()
        run_model(model, trace, tracer=Tracer(metrics))
        expected = _fold_events(MetricsSink(), stream.events)
        assert metrics.summary() == expected.summary(), (model, workload)

        profile = StallProfileSink()
        run_model(model, trace, tracer=Tracer(profile))
        expected = _fold_events(StallProfileSink(), stream.events)
        assert _profile(profile) == _profile(expected), (model, workload)
