"""Wall-clock benchmark harness: the timing cores' speed gate.

Simulator *output* is pinned bit-identical by the golden suite; this
module pins simulator *speed*.  ``run_bench`` times each model over a
fixed workload matrix (traces prebuilt, so only the timing loops are
measured), taking the median of ``repeats`` passes to shed scheduler
noise, and returns a JSON-serializable record:

* per-model wall seconds, simulated cycles and cycles/second,
* matrix totals,
* the git revision, scale, matrix definition and reference probe time
  that produced it.

Host-speed scaling.  The CPU of a shared host runs 20-50% slower in
stretches that last from seconds to minutes, and the simulator slows
with it.  So every cell is timed between two runs of
:func:`speed_probe`, a fixed interpreter loop timed in CPU seconds, and
multiplied by ``reference_probe_s`` over their mean (:func:`scaled`):
every wall time in a record is reported at the host speed at which the
probe takes the record's ``reference_probe_s``.  A record made without
a reference takes the fastest probe it saw; a gated run is scaled to
its baseline's reference, so the two compare at one host speed.  (The
method is the repository benchmark's, ``perfbench/common.py``.)

``repro bench --smoke --against benchmarks/bench_smoke_baseline.json
--compare benchmarks/bench_smoke_baseline.json`` is the check.sh perf
gate: it fails on a matrix-total regression beyond
``--max-regression`` and on any one model's throughput falling below
``1 - --max-regression`` of the baseline.  The full-matrix records of
earlier changes are kept as ``BENCH_PR<n>.json`` at the repository
root; ``--compare`` accepts them too.

Cycle counts are deterministic, so a benchmark run doubles as a coarse
sanity check: ``compare_bench`` flags any cycle-count drift against the
baseline as an error, not a regression percentage.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

from ..workloads import ALL_WORKLOADS
from .experiment import MODEL_FACTORIES, TraceCache, make_model

#: The five primary timing models, benchmarked in a fixed order.
BENCH_MODELS = tuple(MODEL_FACTORIES)

#: Small fixed matrix for the check.sh perf-smoke gate: one integer
#: kernel, one pointer-chaser, one FP kernel.
SMOKE_WORKLOADS = ("vpr", "mcf", "equake")

#: Benchmark record schema version.
BENCH_SCHEMA = "repro-bench/1"

#: Iterations of the :func:`speed_probe` loop (about a millisecond).
PROBE_ITERATIONS = 10_000


def speed_probe() -> float:
    """CPU seconds this thread spends on a fixed interpreter loop.

    CPU time, not wall time, so that waiting for a CPU does not count:
    the probe measures how fast the host runs Python, not how busy
    other processes keep it.
    """
    table: Dict[int, int] = {}
    start = time.thread_time()
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
    return time.thread_time() - start


def scaled(seconds: float, before: float, after: float,
           reference: float) -> float:
    """``seconds`` at the host speed where the probe takes
    ``reference``, given the probes taken just before and after it."""
    return seconds * 2 * reference / (before + after)


def git_sha() -> Optional[str]:
    """The current git revision, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_bench(models: Sequence[str] = BENCH_MODELS,
              workloads: Sequence[str] = SMOKE_WORKLOADS,
              scale: float = 0.1, repeats: int = 5,
              slow: bool = False,
              reference_probe_s: Optional[float] = None) -> dict:
    """Time ``models`` x ``workloads`` and return the benchmark record.

    Traces are built before the clock starts.  Each (model, workload)
    cell is timed independently, each run between two speed probes and
    scaled to ``reference_probe_s`` (default: the fastest probe of this
    run), and takes the median of ``repeats`` scaled runs.  A cell runs
    for about 10 ms and a probe for about 1 ms, so one run's scaled
    time can be off by 10-15% either way; the median of five sheds
    that where the minimum would keep the luckiest error.  A model's
    wall time is the sum of its cell medians.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cache = TraceCache(scale)
    traces = [cache.trace(w) for w in workloads]

    raw: Dict[str, List[list]] = {}
    cycles_of: Dict[str, int] = {}
    probes: List[float] = [speed_probe()]
    for model in models:
        cycles = 0
        raw[model] = cells = []
        for trace in traces:
            runs = []
            for rep in range(repeats):
                t0 = time.perf_counter()
                stats = make_model(model, trace, slow=slow).run()
                cell = time.perf_counter() - t0
                probes.append(speed_probe())
                runs.append((cell, probes[-2], probes[-1]))
            cycles += stats.cycles   # deterministic across repeats
            cells.append(runs)
        cycles_of[model] = cycles
    if reference_probe_s is None:
        reference_probe_s = min(probes)

    per_model: Dict[str, dict] = {}
    for model in models:
        cycles = cycles_of[model]
        wall = sum(median([scaled(cell, before, after, reference_probe_s)
                           for cell, before, after in runs])
                   for runs in raw[model])
        per_model[model] = {
            "wall_seconds": round(wall, 4),
            "cycles": cycles,
            "cycles_per_second": round(cycles / wall) if wall else 0,
        }

    total_wall = sum(m["wall_seconds"] for m in per_model.values())
    total_cycles = sum(m["cycles"] for m in per_model.values())
    return {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "scale": scale,
        "repeats": repeats,
        "slow": slow,
        "reference_probe_s": reference_probe_s,
        "models": list(models),
        "workloads": list(workloads),
        "per_model": per_model,
        "total": {
            "wall_seconds": round(total_wall, 4),
            "cycles": total_cycles,
            "cycles_per_second": (round(total_cycles / total_wall)
                                  if total_wall else 0),
        },
    }


def compare_bench(current: dict, baseline: dict,
                  max_regression: float = 0.25) -> List[str]:
    """Regression findings of ``current`` against ``baseline``.

    Returns a list of human-readable findings (empty = pass): a
    wall-clock regression beyond ``max_regression`` on the matrix total,
    or any cycle-count drift (cycle counts are deterministic, so drift
    means the simulation changed, not the machine).
    """
    findings: List[str] = []
    base_total = baseline.get("total", {}).get("wall_seconds")
    cur_total = current.get("total", {}).get("wall_seconds")
    if base_total and cur_total:
        ratio = cur_total / base_total
        if ratio > 1.0 + max_regression:
            findings.append(
                f"total wall-clock regressed {ratio:.2f}x "
                f"({base_total:.3f}s -> {cur_total:.3f}s; limit "
                f"{1.0 + max_regression:.2f}x)")
    base_models = baseline.get("per_model", {})
    for model, cur in current.get("per_model", {}).items():
        base = base_models.get(model)
        if base is None:
            continue
        if base.get("cycles") != cur.get("cycles"):
            findings.append(
                f"{model}: simulated cycle count drifted "
                f"{base.get('cycles')} -> {cur.get('cycles')} "
                f"(benchmark matrices are deterministic; the timing "
                f"model changed)")
    return findings


def compare_speedups(current: dict, baseline: dict,
                     max_regression: float = 0.25):
    """Per-model throughput ratios of ``current`` against ``baseline``.

    Returns ``(lines, regressions)``: one rendered line per model with
    its cycles/second speedup ratio, and one finding per model whose
    throughput fell below ``1 - max_regression`` of the baseline.
    Ratios are throughput-based (cycles/second, not wall seconds), so a
    record can be compared against a baseline taken over a different
    workload matrix — e.g. the smoke matrix against a full-matrix
    ``BENCH_PR<n>.json``.
    """
    lines: List[str] = []
    regressions: List[str] = []
    if current.get("workloads") != baseline.get("workloads"):
        lines.append(
            f"note: workload matrices differ "
            f"({len(current.get('workloads', []))} vs "
            f"{len(baseline.get('workloads', []))} workloads); "
            f"comparing cycles/second throughput")
    base_models = baseline.get("per_model", {})
    floor = 1.0 - max_regression
    for model in current.get("models", []):
        cur = current.get("per_model", {}).get(model, {})
        base = base_models.get(model, {})
        cur_cps = cur.get("cycles_per_second")
        base_cps = base.get("cycles_per_second")
        if not cur_cps or not base_cps:
            lines.append(f"{model:>15}: no baseline entry")
            continue
        ratio = cur_cps / base_cps
        lines.append(
            f"{model:>15}: {base_cps:>10} -> {cur_cps:>10} cyc/s "
            f"({ratio:.2f}x)")
        if ratio < floor:
            regressions.append(
                f"{model}: throughput fell to {ratio:.2f}x of baseline "
                f"({base_cps} -> {cur_cps} cyc/s; floor {floor:.2f}x)")
    base_total = baseline.get("total", {}).get("cycles_per_second")
    cur_total = current.get("total", {}).get("cycles_per_second")
    if base_total and cur_total:
        lines.append(
            f"{'total':>15}: {base_total:>10} -> {cur_total:>10} cyc/s "
            f"({cur_total / base_total:.2f}x)")
    return lines, regressions


def render_bench(record: dict, baseline: Optional[dict] = None) -> str:
    """Human-readable table for one benchmark record."""
    lines = [
        f"repro bench: {len(record['models'])} model(s) x "
        f"{len(record['workloads'])} workload(s) at scale "
        f"{record['scale']}"
        + (" [--slow reference loop]" if record.get("slow") else ""),
        f"{'model':>15} {'wall s':>8} {'cycles':>12} {'cyc/s':>12}",
    ]
    base_models = (baseline or {}).get("per_model", {})
    for model in record["models"]:
        entry = record["per_model"][model]
        suffix = ""
        base = base_models.get(model)
        if base and base.get("wall_seconds"):
            ratio = base["wall_seconds"] / entry["wall_seconds"]
            suffix = f"  ({ratio:.2f}x vs baseline)"
        lines.append(
            f"{model:>15} {entry['wall_seconds']:>8.3f} "
            f"{entry['cycles']:>12} {entry['cycles_per_second']:>12}"
            f"{suffix}")
    total = record["total"]
    lines.append(
        f"{'total':>15} {total['wall_seconds']:>8.3f} "
        f"{total['cycles']:>12} {total['cycles_per_second']:>12}")
    base_total = (baseline or {}).get("total", {}).get("wall_seconds")
    if base_total:
        lines.append(
            f"baseline total {base_total:.3f}s -> "
            f"{base_total / total['wall_seconds']:.2f}x overall")
    return "\n".join(lines)


def profile_bench(models: Sequence[str] = BENCH_MODELS,
                  workloads: Sequence[str] = SMOKE_WORKLOADS,
                  scale: float = 0.1, top: int = 10) -> List[dict]:
    """cProfile every (model, workload) cell of the benchmark matrix.

    Returns one record per cell: the model, the workload, the cell's
    profiled wall seconds, and the ``top`` hottest functions by
    cumulative time as ``(cumtime, tottime, ncalls, where)`` rows.
    Traces are prebuilt so the profile sees only the timing loop — the
    same boundary ``run_bench`` times.  Profiled runs carry interpreter
    tracing overhead, so the absolute seconds are not comparable with
    ``run_bench`` records; the *shape* (which frames dominate) is the
    product.
    """
    import cProfile
    import pstats

    cache = TraceCache(scale)
    traces = {w: cache.trace(w) for w in workloads}
    cells: List[dict] = []
    for model in models:
        for workload in workloads:
            core = make_model(model, traces[workload])
            profile = cProfile.Profile()
            profile.enable()
            core.run()
            profile.disable()
            stats = pstats.Stats(profile)
            stats.sort_stats("cumulative")
            rows = []
            for func in stats.fcn_list[:top]:          # sorted order
                cc, nc, tt, ct, _ = stats.stats[func]
                path, lineno, name = func
                where = (f"{Path(path).name}:{lineno}({name})"
                         if lineno else name)
                rows.append((round(ct, 4), round(tt, 4), nc, where))
            cells.append({
                "model": model,
                "workload": workload,
                "wall_seconds": round(stats.total_tt, 4),
                "hotspots": rows,
            })
    return cells


def render_profile(cells: List[dict]) -> str:
    """Human-readable hotspot tables, one per profiled cell."""
    lines: List[str] = []
    for cell in cells:
        lines.append(
            f"{cell['model']}/{cell['workload']}: "
            f"{cell['wall_seconds']:.3f}s profiled")
        lines.append(f"  {'cum s':>8} {'tot s':>8} {'calls':>9}  where")
        for ct, tt, nc, where in cell["hotspots"]:
            lines.append(f"  {ct:>8.4f} {tt:>8.4f} {nc:>9}  {where}")
        lines.append("")
    return "\n".join(lines).rstrip()


def load_record(path) -> dict:
    with open(Path(path)) as handle:
        return json.load(handle)


def write_record(record: dict, path) -> None:
    with open(Path(path), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


__all__ = ("BENCH_MODELS", "BENCH_SCHEMA", "SMOKE_WORKLOADS",
           "compare_bench", "compare_speedups", "git_sha", "load_record",
           "profile_bench", "render_bench", "render_profile", "run_bench",
           "scaled", "speed_probe", "write_record")
