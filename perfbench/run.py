"""The repository benchmark: four workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 \
        --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` is a separate run that records spans around every call
into a layer and reports the per-layer metrics, writing the spans to
``.perfbench-out/``.  Every metric is printed by name with its unit on
stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs
every workload both ways and prints one table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from typing import Dict, List

import common
from common import (KERNELS, MODULE_OF, OUT, PRIMARY, ROOT, VARIANTS,
                    median, tail)

WORKLOADS = ("paper-cold", "kernel-warm", "design-sweep", "observe-traced")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_insts_per_s": "inst/s",
    "sim_cycles_per_s": "cycle/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

_STAGES = {"workloads.build_s": "s", "analysis.verify_s": "s",
           "compiler.compile_s": "s", "isa.execute_s": "s",
           "isa.trace_insts": "count", "isa.decode_s": "s",
           "isa.columns_s": "s", "isa.trace_mb": "MB"}
PER_LAYER: Dict[str, str] = dict(_STAGES)
PER_LAYER.update({f"{MODULE_OF[m]}.{m}.first_run_s": "s" for m in PRIMARY})
for _m in VARIANTS:
    PER_LAYER[f"{MODULE_OF[_m]}.{_m}.run_s"] = "s"
    PER_LAYER[f"{MODULE_OF[_m]}.{_m}.cycles"] = "count"
PER_LAYER["analysis.audit_s"] = "s"
for _m in PRIMARY:
    PER_LAYER[f"memory.{_m}.l1d_load_misses"] = "count"
    PER_LAYER[f"branch.{_m}.mispredicts"] = "count"
    PER_LAYER[f"pipeline.{_m}.load_stall_share"] = "ratio"
PER_LAYER.update({
    "multipass.advance_reuse_share": "ratio",
    "multipass.rs_served_share": "ratio",
    "service.submit_s": "s",
    "service.first_cell_s": "s",
    "service.cache_share": "ratio",
    "service.dedup_share": "ratio",
    "service.simulated_share": "ratio",
    "harness.parallel.cell_s": "s",
    "harness.parallel.worker_busy_share": "ratio",
    "harness.results_cache.get_s": "s",
    "harness.results_cache.mb": "MB",
})
PER_LAYER.update({f"telemetry.{m}.traced_run_s": "s" for m in PRIMARY})
PER_LAYER.update({
    "telemetry.overhead_ratio": "ratio",
    "telemetry.summary_s": "s",
    "harness.unaccounted_s": "s",
    "bench.trace_overhead_share": "ratio",
    "bench.paper_error": "ratio",
    "bench.failed_share": "ratio",
})

#: The stage spans behind each stage metric.
_STAGE_SPANS = {"workloads.build_s": "workloads.build",
                "analysis.verify_s": "analysis.verify",
                "compiler.compile_s": "compiler.compile",
                "isa.execute_s": "isa.execute",
                "isa.decode_s": "isa.decode",
                "isa.columns_s": "isa.columns"}
#: |harness.unaccounted_s| allowed on paper-cold, as a share of wall_s.
ACCOUNTING_TOLERANCE = 0.02
COLD_SCALE = 1.0


def cell_order(rng, models, shuffle_models=True) -> List[list]:
    """Seeded kernel order, and model order within each kernel."""
    kernels = list(KERNELS)
    rng.shuffle(kernels)
    return [[w, rng.sample(list(models), len(models)) if shuffle_models
             else list(models)] for w in kernels]


def _cold_child(order, spans_path=None) -> dict:
    cmd = [sys.executable, str(common.HERE / "cold.py"),
           "--order", json.dumps(order), "--scale", str(COLD_SCALE)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    out = subprocess.run(cmd, cwd=ROOT, env=common.child_env(),
                         capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"cold.py failed ({out.returncode}):\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _stage_metrics(self_s: Dict[str, float], counts: dict
                   ) -> Dict[str, float]:
    """Per-layer times of the one-shot stages, from span self times."""
    out = {name: self_s.get(span, 0.0)
           for name, span in _STAGE_SPANS.items()}
    out["isa.trace_insts"] = counts.get("isa.trace_insts", 0)
    out["isa.trace_mb"] = counts.get("isa.trace_mb", 0.0)
    out["analysis.audit_s"] = self_s.get("analysis.audit", 0.0)
    for model in PRIMARY:
        prefix = f"{MODULE_OF[model]}.{model}"
        out[f"{prefix}.first_run_s"] = self_s.get(f"{prefix}.first_run",
                                                  0.0)
    return out


def _best(runs: List[dict]) -> dict:
    """Each key's smallest value over ``runs``: the fastest repeat of a
    cell or job, which the host's bursts of slowness rarely reach."""
    out: dict = {}
    for times in runs:
        for key, seconds in times.items():
            out[key] = min(seconds, out.get(key, seconds))
    return out


def _per_model(times: Dict[tuple, float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for (_, model), seconds in times.items():
        out[model] = out.get(model, 0.0) + seconds
    return out


def _latency(metrics, extra, samples) -> None:
    value, pct, n = tail(samples)
    metrics["latency_p50_s"] = median(samples)
    metrics["latency_tail_s"] = value
    extra["latency_tail"] = {"percentile": pct, "samples": n}


def _cell_metrics(metrics, extra, times: Dict[tuple, float],
                  docs: Dict[tuple, dict]) -> None:
    """wall_s, simulation rates and latencies from per-cell times."""
    wall = sum(times.values())
    cells = [docs[cell] for cell in times if cell in docs]
    metrics["wall_s"] = wall
    metrics["sim_insts_per_s"] = sum(d["instructions"] for d in cells) / wall
    metrics["sim_cycles_per_s"] = sum(d["cycles"] for d in cells) / wall
    _latency(metrics, extra, list(times.values()))


def paper_cold(rng, seconds, trace, spans_path):
    """The 5 primary models x 12 kernels, cold, serially, in a fresh
    process per matrix; each cell reports its fastest matrix.

    Models run in ``run_matrix`` order within a kernel, so the model
    whose cell carries the kernel's trace prep is the same on every
    seed; the seed orders the kernels.
    """
    checker = common.Checker()
    order = cell_order(rng, PRIMARY, shuffle_models=False)
    children = []
    start = time.perf_counter()
    while not children or (
            not trace and time.perf_counter() - start < seconds):
        children.append(_cold_child(order))
    if trace:
        children.append(_cold_child(order, spans_path))
    for child in children:
        for workload, model, doc, _, _ in child["cells"]:
            checker.check(COLD_SCALE, {}, workload, model, doc)
        for error in child["errors"]:
            checker.fail(error)
    extra: dict = {"order": order,
                   "raw_pass_walls": [c["wall_s"] for c in children]}
    metrics: Dict[str, float] = {}
    scaled = [{(w, m): t for w, m, _, _, t in c["cells"]} for c in children]
    if not trace:
        times = _best(scaled)
        docs = {(w, m): d for w, m, d, _, _ in children[0]["cells"]}
        imports = [c["import_s"] for c in children]
        imports += [common.import_probe()
                    for _ in range(max(0, 3 - len(imports)))]
        metrics["setup_s"] = median(imports)
        _cell_metrics(metrics, extra, times, docs)
        metrics["peak_rss_mb"] = median([c["peak_rss_mb"] for c in children])
        return checker, metrics, extra
    traced = children[1]
    spans = json.loads(spans_path.read_text())
    self_s = spans["self_s"]
    metrics.update(_stage_metrics(self_s, traced["counts"]))
    unaccounted = traced["wall_s"] - sum(self_s.values())
    metrics["harness.unaccounted_s"] = unaccounted
    if abs(unaccounted) > ACCOUNTING_TOLERANCE * traced["wall_s"]:
        checker.fail(f"layer self times miss {unaccounted:.3f}s of "
                     f"wall_s {traced['wall_s']:.3f}s")
    metrics["bench.trace_overhead_share"] = (
        sum(scaled[1].values()) / sum(scaled[0].values()) - 1)
    extra["absent_stages"] = spans["absent"]
    return checker, metrics, extra


def _in_process(name, rng, seconds, trace, spans_path):
    import resource

    import warm

    models = VARIANTS if name == "kernel-warm" else PRIMARY
    order = cell_order(rng, models)
    run = warm.kernel_warm if name == "kernel-warm" else warm.observe_traced
    result = run(order, seconds, trace)
    checker = result["checker"]
    passes = result["passes"]
    times = _best([p["times"] for p in passes[0]])
    metrics: Dict[str, float] = {}
    extra: dict = {"order": order,
                   "raw_pass_walls": [p["wall"] for p in passes[0]]}
    if not trace:
        docs = {(w, m): d for (_, w, m), d in checker.default_cells.items()}
        metrics["setup_s"] = median(result["setup"])
        _cell_metrics(metrics, extra, times, docs)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        return checker, metrics, extra
    spans = result["spans"]
    spans.dump(spans_path, {"workload": name})
    metrics.update(_stage_metrics(spans.self_times(), result["counts"]))
    traced = _best([p["runs"] for p in passes[1]])
    plain = traced if name == "kernel-warm" else _best(
        [p["runs"] for p in passes[2]])
    for model, total in _per_model(plain).items():
        metrics[f"{MODULE_OF[model]}.{model}.run_s"] = total
    if name == "observe-traced":
        for model, total in _per_model(traced).items():
            metrics[f"telemetry.{model}.traced_run_s"] = total
        metrics["telemetry.summary_s"] = sum(_best(
            [p["summary"] for p in passes[1]]).values())
        metrics["telemetry.overhead_ratio"] = (sum(traced.values())
                                               / sum(plain.values()))
    metrics["bench.trace_overhead_share"] = (
        sum(_best([p["times"] for p in passes[1]]).values())
        / sum(times.values()) - 1)
    extra["absent_stages"] = spans.absent
    return checker, metrics, extra


def design_sweep(rng, seconds, trace, spans_path):
    """Overlapping 3x3 jobs from two closed-loop clients against
    ``repro serve --parallel 2``; the fastest of several identical
    passes, each on a fresh server."""
    import sweep

    result = sweep.design_sweep(rng, seconds, trace)
    checker = result["checker"]
    passes = result["passes"]
    every = passes + result["traced"]
    sources = {k: sum(p["sources"][k] for p in every)
               for k in ("cache", "dedup", "simulated")}
    served = sum(sources.values()) or 1
    shares = {k: v / served for k, v in sources.items()}
    metrics: Dict[str, float] = {}
    extra = {"raw_pass_walls": [p["raw_wall"] for p in passes],
             "jobs_per_pass": passes[0]["jobs"],
             "cell_sources": sources, "cell_shares": shares}
    fastest = min(passes, key=lambda p: p["wall"])
    if not trace:
        metrics["setup_s"] = median(result["setup"])
        metrics["wall_s"] = fastest["wall"]
        metrics["sim_insts_per_s"] = fastest["insts"] / fastest["wall"]
        metrics["sim_cycles_per_s"] = fastest["cycles"] / fastest["wall"]
        _latency(metrics, extra,
                 list(_best([p["latencies"] for p in passes]).values()))
        metrics["peak_rss_mb"] = median([p["rss"] for p in passes])
        return checker, metrics, extra
    spans = result["spans"]
    spans.dump(spans_path, {"workload": "design-sweep"})
    durations: Dict[str, List[float]] = {}
    for _, name, start, end, _, _ in spans.records:
        durations.setdefault(name, []).append(end - start)
    metrics.update({
        "service.submit_s": median(durations["service.submit"]),
        "service.first_cell_s": median(durations["service.first_cell"]),
        "service.cache_share": shares["cache"],
        "service.dedup_share": shares["dedup"],
        "service.simulated_share": shares["simulated"],
        "harness.parallel.cell_s": median(
            [d for p in every for d in p["durations"]]),
        "harness.parallel.worker_busy_share": median(
            [sum(p["durations"]) / (sweep.WORKERS * p["raw_wall"])
             for p in every]),
        "harness.results_cache.get_s": median(
            [p["cache_get_s"] for p in every]),
        "harness.results_cache.mb": median([p["cache_mb"] for p in every]),
        "bench.trace_overhead_share": (
            min(p["wall"] for p in result["traced"]) / fastest["wall"] - 1),
    })
    return checker, metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(f"{name}/{seed}")
    spans_path = OUT / f"{name}-seed{seed}.spans.json"
    if name == "paper-cold":
        checker, metrics, extra = paper_cold(rng, seconds, trace, spans_path)
    elif name == "design-sweep":
        checker, metrics, extra = design_sweep(rng, seconds, trace,
                                               spans_path)
    else:
        checker, metrics, extra = _in_process(name, rng, seconds, trace,
                                              spans_path)
    attempted = max(1, checker.attempted)
    if trace:
        layer = dict.fromkeys(PER_LAYER, 0.0)
        layer.update(common.simulated_metrics(
            {(w, m): doc for (_, w, m), doc in checker.default_cells.items()}))
        layer.update(metrics)
        layer["bench.failed_share"] = checker.failed / attempted
        units = PER_LAYER
        metrics = layer
        extra["spans"] = str(spans_path.relative_to(ROOT))
    else:
        units = END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {missing}")
    return {
        "correct": checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "_extra": dict(extra, seed=seed, workload=name, trace=int(trace),
                       problems=checker.problems[:50],
                       digests=checker.digests),
    }


def _print_table(title: str, result: dict) -> None:
    print(f"== {title}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}",
          file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)


def _run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(common.HERE / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return out.returncode
            results[f"{name}/trace{trace}"] = json.loads(
                out.stdout.strip().splitlines()[-1])
    for title, result in results.items():
        _print_table(title, result)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    extra = result.pop("_extra")
    record = OUT / (f"{args.workload}-trace{args.trace}-seed{args.seed}"
                    ".json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(dict(result, record=extra), indent=1,
                                 sort_keys=True) + "\n")
    _print_table(f"{args.workload} trace={args.trace} seed={args.seed}",
                 result)
    for key in ("latency_tail", "cell_shares", "absent_stages", "spans"):
        if key in extra:
            print(f"  {key}: {extra[key]}", file=sys.stderr)
    for problem in extra["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(f"  record: {record.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
