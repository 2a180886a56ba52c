"""paper-cold: one cold matrix in this fresh process.

Started by ``run.py`` as a child so that every matrix starts with no
imports, no traces and no lazy columns::

    python3 perfbench/cold.py --order '[["mcf", ["ooo", ...]], ...]' \
        --scale 1.0 [--spans FILE]

Without ``--spans`` the cells go through ``TraceCache.trace`` and
``run_model`` exactly as serial ``run_matrix`` runs them, then
``check_bound``.  With ``--spans`` each stage is called separately under
a span and the spans are written to FILE.  A speed probe between cells
gives each cell's latency at the reference host speed.  Prints one JSON
line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import common
from common import MODULE_OF, Spans, payload, scaled, speed_probe


def _untraced(order, scale):
    from repro.analysis.audit import check_bound
    from repro.harness.experiment import TraceCache, run_model

    cache = TraceCache(scale)
    results, errors = [], []
    start = time.perf_counter()
    before = speed_probe()
    for workload, models in order:
        for model in models:
            t0 = time.perf_counter()
            try:
                trace = cache.trace(workload)
                stats = run_model(model, trace)
                check_bound(stats, trace, model, workload)
            except Exception as exc:  # recorded as a failed cell
                errors.append(f"{workload}/{model}: "
                              f"{type(exc).__name__}: {exc}")
                continue
            seconds = time.perf_counter() - t0
            after = speed_probe()
            results.append((workload, model, stats, seconds,
                            scaled(seconds, before, after)))
            before = after
    wall = time.perf_counter() - start
    return wall, results, errors, {}


def _traced(order, scale, spans):
    from repro.analysis.audit import check_bound
    from repro.harness.experiment import make_model
    from stages import staged_trace

    counts = {}
    results, errors = [], []
    start = time.perf_counter()
    with spans.span("bench.probe"):
        before = speed_probe()
    for workload, models in order:
        with spans.span("harness.experiment", group=workload) as root:
            try:
                trace = staged_trace(workload, scale, spans, counts)
            except Exception as exc:
                errors.append(f"{workload}: {type(exc).__name__}: {exc}")
                continue
            prep = time.perf_counter() - root[2]
            for model in models:
                t0 = time.perf_counter()
                try:
                    with spans.span(
                            f"{MODULE_OF[model]}.{model}.first_run"):
                        stats = make_model(model, trace).run()
                    with spans.span("analysis.audit"):
                        check_bound(stats, trace, model, workload)
                except Exception as exc:
                    errors.append(f"{workload}/{model}: "
                                  f"{type(exc).__name__}: {exc}")
                    continue
                seconds = time.perf_counter() - t0 + prep
                with spans.span("bench.probe"):
                    after = speed_probe()
                results.append((workload, model, stats, seconds,
                                scaled(seconds, before, after)))
                before = after
                prep = 0.0
    wall = time.perf_counter() - start
    return wall, results, errors, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    order = json.loads(args.order)

    common.require_source()
    before = speed_probe()
    t0 = time.perf_counter()
    for module in common.IMPORTS:
        __import__(module)
    import_s = scaled(time.perf_counter() - t0, before, speed_probe())

    spans = Spans() if args.spans else None
    if spans is None:
        wall, results, errors, counts = _untraced(order, args.scale)
    else:
        wall, results, errors, counts = _traced(
            order, args.scale, spans)
        spans.dump(Path(args.spans),
                   {"workload": "paper-cold", "wall_s": wall})
    print(json.dumps({
        "import_s": import_s,
        "wall_s": wall,
        "cells": [[w, m, payload(stats), raw, latency]
                  for w, m, stats, raw, latency in results],
        "errors": errors,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
