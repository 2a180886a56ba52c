"""Bounded aggregation: histograms, adaptive series, MetricsSink."""

from repro.pipeline.stats import StallCategory
from repro.telemetry import (Event, EventKind, Histogram, IntervalSeries,
                             MetricsSink, Tracer)


def test_histogram_power_of_two_buckets():
    hist = Histogram()
    for value in (0, 1, 2, 3, 4, 100):
        hist.record(value)
    assert hist.count == 6
    assert hist.total == 110
    assert hist.max == 100
    assert hist.to_dict()["buckets"] == {
        "<=1": 2,      # 0, 1
        "<=2": 1,      # 2
        "<=4": 2,      # 3, 4
        "<=128": 1,    # 100
    }


def test_interval_series_coarsens_to_stay_bounded():
    series = IntervalSeries(interval=1, max_points=4)
    for cycle in range(16):
        series.record(cycle)
    assert len(series.points) <= 4
    assert series.interval == 4          # doubled 1 -> 2 -> 4
    assert sum(series.points) == 16


def test_record_span_distributes_across_boundaries():
    series = IntervalSeries(interval=4, max_points=16)
    series.record_span(2, 6)          # cycles 2..7 -> 2 in [0,4), 4 in [4,8)
    assert series.points[:2] == [2, 4]
    assert sum(series.points) == 6


def test_metrics_sink_aggregates_without_storing_events():
    sink = MetricsSink()
    tracer = Tracer(sink)
    tracer.fetch(0, 0, 0)
    tracer.issue(1, 0, 0)
    tracer.commit(2, 0, 0)
    for cycle in range(3, 8):
        tracer.charge(cycle, StallCategory.LOAD, seq=1, pc=4)
    for cycle in range(0, 8):
        tracer.mode(cycle, "architectural")
    tracer.cache_miss(3, 1, 4, "mem")
    tracer.finish(8)

    assert sink.events == []          # aggregation only, no storage
    summary = sink.summary()
    counters = summary["counters"]
    assert counters["events.fetch"] == 1
    assert counters["stall_cycles.load"] == 5
    assert counters["mode_cycles.architectural"] == 8
    assert counters["cache_miss.mem"] == 1
    assert summary["last_cycle"] == 8
    hist = summary["histograms"]["stall_span_cycles"]
    assert hist["count"] == 1 and hist["total"] == 5
    assert sum(summary["series"]["commits"]["points"]) == 1


def test_metrics_sink_summary_is_json_safe():
    import json

    sink = MetricsSink()
    sink.emit(Event(EventKind.MODE, 0, mode="advance", cycles=7))
    json.dumps(sink.summary())


def _drive(tracer):
    """A hand-written run: spans split by pc, category and execution,
    a multi-cycle charge, mode transitions and every point event."""
    tracer.mode(0, "architectural")
    tracer.fetch(0, 0, 0)
    tracer.issue(0, 0, 0)
    tracer.charge(0, StallCategory.EXECUTION)
    for cycle in range(1, 4):
        tracer.charge(cycle, StallCategory.LOAD, seq=1, pc=4)
    tracer.charge(4, StallCategory.LOAD, seq=1, pc=4, cycles=1500)
    tracer.mode(1504, "advance")
    tracer.rs_hit(1504, 2, 5, mode="advance")
    tracer.restart(1505, 1, 4)
    tracer.charge(1504, StallCategory.OTHER, pc=5)
    tracer.charge(1505, StallCategory.EXECUTION)
    tracer.charge(1506, StallCategory.OTHER, pc=5)
    tracer.mode(1507, "rally")
    tracer.cache_miss(1507, 3, 6, "L2")
    tracer.commit(1507, 0, 0)
    tracer.commit(1507, 1, 4)
    tracer.finish(1508)


def test_tracer_routes_folding_sinks_to_a_record():
    from repro.telemetry import TeeSink, TelemetrySink

    assert Tracer(MetricsSink()).record is not None
    assert Tracer(TelemetrySink()).record is None
    assert Tracer(TeeSink(MetricsSink())).record is None


def test_record_and_event_routes_summarize_identically():
    from repro.telemetry import TeeSink

    folded = MetricsSink(interval=256, max_points=4)
    _drive(Tracer(folded))
    streamed = MetricsSink(interval=256, max_points=4)
    _drive(Tracer(TeeSink(streamed)))      # per-event route via emit()
    assert folded.summary() == streamed.summary()
    counters = folded.summary()["counters"]
    assert counters["events.stall_end"] == 3
    assert counters["stall_cycles.load"] == 1503
    assert folded.summary()["last_cycle"] == 1507


def test_same_cycle_mode_calls_keep_the_last():
    """Transition-only mode calls (the kernels') resolve like per-cycle
    ones: a mode replaced within its first cycle never appears."""
    sink = MetricsSink()
    tracer = Tracer(sink)
    tracer.mode(0, "rally")
    tracer.mode(3, "architectural")
    tracer.mode(3, "advance")
    tracer.finish(5)
    counters = sink.summary()["counters"]
    assert counters["mode_cycles.rally"] == 3
    assert counters["mode_cycles.advance"] == 2
    assert "mode_cycles.architectural" not in counters
