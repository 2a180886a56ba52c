"""kernel-warm and observe-traced: timed passes over prepared traces.

Both run in the benchmark process.  Set-up builds every trace and runs
each model once on it, so the lazy decode and column builds are done
before the clock starts; it is repeated ``SETUP_REPEATS`` times (each
time from scratch) and ``setup_s`` is the median.  The timed run then
makes whole passes over the cells until ``--seconds`` have passed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from common import (MODULE_OF, Checker, Spans, import_probe, maybe, payload,
                    scaled, speed_probe)

SCALE = 0.1
SETUP_REPEATS = 3


def _prepare(kernels, spans: Optional[Spans], counts: Dict[str, float]):
    if spans is None:
        from repro.harness.experiment import TraceCache

        cache = TraceCache(SCALE)
        return {w: cache.trace(w) for w in kernels}
    from stages import staged_trace

    traces = {}
    for workload in kernels:
        with spans.span("harness.experiment", group=workload):
            traces[workload] = staged_trace(workload, SCALE, spans, counts)
    return traces


def _pass(cells, traces, checker: Checker, spans: Optional[Spans],
          kind: str, tag: str) -> dict:
    """One pass over ``cells``: its wall time, and per cell its latency
    (``times``), model run (``runs``) and ``sink.summary()`` times, each
    scaled to the reference host speed by the probes around the cell.

    ``kind`` is ``first_run`` or ``run`` for plain ``run_model`` calls and
    ``traced_run`` for runs with a ``Tracer`` into a ``MetricsSink``, the
    way ``repro sweep --telemetry`` runs a cell.
    """
    from repro.harness.experiment import run_model

    if kind == "traced_run":
        from repro.telemetry import MetricsSink, Tracer
    times: Dict[Tuple[str, str], float] = {}
    runs: Dict[Tuple[str, str], float] = {}
    summary: Dict[Tuple[str, str], float] = {}
    outputs = []
    start = time.perf_counter()
    before = speed_probe()
    for workload, model in cells:
        trace = traces[workload]
        group = f"{workload}/{model}/{tag}"
        try:
            t0 = time.perf_counter()
            if kind == "traced_run":
                sink = MetricsSink()
                with maybe(spans, f"telemetry.{model}.traced_run", group):
                    stats = run_model(model, trace, tracer=Tracer(sink))
                t1 = time.perf_counter()
                with maybe(spans, "telemetry.summary", group):
                    sink.summary()
                t2 = time.perf_counter()
            else:
                with maybe(spans, f"{MODULE_OF[model]}.{model}.{kind}",
                           group):
                    stats = run_model(model, trace)
                t1 = t2 = time.perf_counter()
        except Exception as exc:  # recorded as a failed cell
            outputs.append((workload, model, exc))
            continue
        after = speed_probe()
        times[(workload, model)] = scaled(t2 - t0, before, after)
        runs[(workload, model)] = scaled(t1 - t0, before, after)
        summary[(workload, model)] = scaled(t2 - t1, before, after)
        before = after
        outputs.append((workload, model, stats))
    wall = time.perf_counter() - start
    for workload, model, stats in outputs:
        if isinstance(stats, Exception):
            checker.fail(f"{workload}/{model}: {type(stats).__name__}: "
                         f"{stats}")
        else:
            checker.check(SCALE, {}, workload, model, payload(stats))
    return {"wall": wall, "times": times, "runs": runs, "summary": summary}


def _setup(kernels, cells, checker, spans, counts):
    """Repeated set-up; returns (set-up seconds per repeat, traces)."""
    samples, traces = [], None
    for repeat in range(SETUP_REPEATS):
        imports = import_probe()
        last = repeat == SETUP_REPEATS - 1
        traces = None  # drop the previous repeat's traces first
        before = speed_probe()
        t0 = time.perf_counter()
        traces = _prepare(kernels, spans if last else None, counts)
        _pass(cells, traces, checker, spans if last else None,
              "first_run", "setup")
        samples.append(imports + scaled(time.perf_counter() - t0, before,
                                        speed_probe()))
    return samples, traces


def _timed(schedule, seconds, min_rounds, traces, checker, spans):
    """Run rounds of ``schedule`` [(cells, kind, traced)] until ``seconds``
    pass and at least ``min_rounds`` rounds ran; returns the pass
    results of each schedule entry."""
    results: List[List[dict]] = [[] for _ in schedule]
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for i, (cells, kind, traced) in enumerate(schedule):
            results[i].append(_pass(cells, traces, checker,
                                    spans if traced else None, kind,
                                    f"pass{rounds}"))
        rounds += 1
    return results


def _workload(order, seconds, trace, kind, extra_schedule,
              min_passes) -> dict:
    cells = [(w, m) for w, models in order for m in models]
    kernels = [w for w, _ in order]
    checker = Checker()
    spans = Spans() if trace else None
    counts: Dict[str, float] = {}
    setups, traces = _setup(kernels, cells, checker, spans, counts)
    schedule = [(cells, kind, False)]
    if trace:
        schedule += [(cells, k, True) for k in extra_schedule]
    results = _timed(schedule, seconds, 1 if trace else min_passes,
                     traces, checker, spans)
    return {"setup": setups, "passes": results, "checker": checker,
            "spans": spans, "counts": counts}


def kernel_warm(order, seconds: float, trace: bool) -> dict:
    """All 9 model variants x 12 kernels over warm traces."""
    return _workload(order, seconds, trace, "run", ["run"], 3)


def observe_traced(order, seconds: float, trace: bool) -> dict:
    """5 primary models x 12 kernels, each run with a Tracer into a
    MetricsSink, over warm traces.

    Traced, the same pass runs again under spans, and then plain
    ``run_model`` passes on the same traces give the untraced baseline
    that ``telemetry.overhead_ratio`` divides by.
    """
    return _workload(order, seconds, trace, "traced_run",
                     ["traced_run", "run"], 2)
