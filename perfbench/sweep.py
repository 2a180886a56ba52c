"""design-sweep: overlapping small jobs against ``repro serve``.

Each pass spawns ``repro serve --parallel 2`` with an empty results
cache in the checkout, waits for ``/health`` (that is set-up), then two
closed-loop client threads take jobs from one shared list in order,
each submitting its next job only after the previous one's ``done``
event.  Jobs are 3 kernels x 3 models at scale 0.1 at one machine
point.  Per point, 4 jobs cover every cell and 2 more repeat a third
of them, so a third of the cells are served by in-flight dedup or the
results cache.  The seed orders the points and jobs and picks the
repeats; the simulated work is the same for every seed.  A run repeats
the same job list on a fresh server until ``--seconds`` pass.
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from common import (KERNELS, OUT, ROOT, Checker, Spans, child_env, median,
                    payload, peak_rss_mb, scaled, speed_probe)

SCALE = 0.1
WORKERS = 2
CLIENTS = 2
#: Knob -> (the values every pass runs, the models its jobs run).  The
#: seed picks only the kernel partitions and the job order, so the
#: simulated work is the same for every seed.
KNOBS = {
    "mispredict_penalty": ((3, 12), ("inorder", "multipass", "ooo")),
    "ooo_window": ((32, 256), ("multipass", "ooo", "ooo-realistic")),
    "multipass_queue_size": ((64, 512), ("inorder", "multipass", "runahead")),
}
DEFAULT_MODELS = ("inorder", "multipass", "ooo")
SETUP_MIN = 3
#: Untraced passes a run makes at least; the fastest one is reported.
MIN_PASSES = 3


def points():
    """[(overrides, models)]: the default point, then every knob value."""
    out = [({}, DEFAULT_MODELS)]
    for knob, (values, models) in KNOBS.items():
        out += [({knob: value}, models) for value in values]
    return out


def make_jobs(rng, kernels) -> List[tuple]:
    """[(overrides, workloads, models)] in submission order.

    Per point, the kernels in groups of three make the cover jobs, which
    run every cell; then two of the triples that take every fourth
    kernel repeat a third of the cells, which in-flight dedup or the
    cache serve.  The groups are fixed so that the jobs cost the same on
    every seed; the seed orders the points, the cover jobs, and picks
    the repeats.
    """
    covers = [tuple(kernels[i:i + 3]) for i in range(0, len(kernels), 3)]
    step = len(covers)
    repeats = [tuple(kernels[i::step]) for i in range(step)]
    order = points()
    rng.shuffle(order)
    jobs = []
    for overrides, models in order:
        rng.shuffle(covers)
        picked = rng.sample(repeats, max(1, len(repeats) // 2))
        jobs += [(overrides, triple, models) for triple in covers + picked]
    return jobs


class Server:
    """One ``repro serve`` process with its own empty results cache."""

    def __init__(self, workdir: Path):
        self.cache = workdir / "cache"
        port_file = workdir / "port"
        workdir.mkdir(parents=True, exist_ok=True)
        self.client = None
        before = speed_probe()
        t0 = time.perf_counter()
        self._log = open(workdir / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), "--parallel", str(WORKERS),
             "--results-cache", str(self.cache)],
            cwd=ROOT, env=child_env(), stdout=self._log,
            stderr=subprocess.STDOUT)
        try:
            self.port = self._await_port(port_file)
            from repro.service.client import ServiceClient

            self.client = ServiceClient(port=self.port, timeout=120)
            self.client.health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = scaled(time.perf_counter() - t0, before,
                              speed_probe())

    def _await_port(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}")
            try:
                return int(port_file.read_text())
            except (FileNotFoundError, ValueError):
                time.sleep(0.005)
        raise RuntimeError("repro serve did not publish its port")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.client is None:
                    raise RuntimeError("server never answered")
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


def _client_loop(client, jobs, counter, lock, records):
    from repro.service.spec import JobSpec

    while True:
        with lock:
            index = next(counter)
        if index >= len(jobs):
            return
        overrides, workloads, models = jobs[index]
        spec = JobSpec(workloads=workloads, models=models, scale=SCALE,
                       machine=dict(overrides))
        record = {"index": index, "job": jobs[index], "cells": [],
                  "error": None, "probe_before": speed_probe()}
        t0 = time.perf_counter()
        try:
            accepted = client.submit(spec)
            record["submitted"] = time.perf_counter()
            for event in client.events(accepted["id"]):
                if event.get("kind") == "cell":
                    if not record["cells"]:
                        record["first_cell"] = time.perf_counter()
                    record["cells"].append(event)
                elif event.get("kind") == "done":
                    record["done"] = time.perf_counter()
        except Exception as exc:  # the job's cells count as failed
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["start"] = t0
        record["end"] = time.perf_counter()
        record["probe_after"] = speed_probe()
        records.append(record)


def _cache_probe(cache_dir: Path, records) -> tuple:
    """(mean seconds per ResultsCache.get over stored keys, MB on disk)."""
    from repro.harness.results_cache import ResultsCache
    from repro.service.spec import JobSpec

    keys = set()
    for record in records:
        overrides, workloads, models = record["job"]
        spec = JobSpec(workloads=workloads, models=models, scale=SCALE,
                       machine=dict(overrides))
        keys.update(spec.cell_keys().values())
    store = ResultsCache(cache_dir)
    size = sum(p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())
    t0 = time.perf_counter()
    for key in keys:
        store.get(key)
    return (time.perf_counter() - t0) / max(1, len(keys)), size / 2**20


def _one_pass(jobs, workdir: Path, checker: Checker,
              spans: Optional[Spans], tag: str) -> dict:
    server = Server(workdir)
    try:
        records: List[dict] = []
        lock = threading.Lock()
        counter = itertools.count()
        start = time.perf_counter()
        with ThreadPoolExecutor(CLIENTS) as pool:
            futures = [pool.submit(_client_loop, server.client, jobs,
                                   counter, lock, records)
                       for _ in range(CLIENTS)]
            for future in futures:
                future.result()
        wall = time.perf_counter() - start
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    sources = {"cache": 0, "dedup": 0, "simulated": 0}
    durations, latencies = [], {}
    insts = cycles = 0
    from repro.service.protocol import cell_result_from_event

    for record in sorted(records, key=lambda r: r["index"]):
        overrides, workloads, models = record["job"]
        expected = {(w, m) for w in workloads for m in models}
        seen = set()
        for event in record["cells"]:
            cell = (event["workload"], event["model"])
            seen.add(cell)
            row = cell_result_from_event(event)
            if not row.ok:
                checker.fail(f"{cell}: {row.error}")
                continue
            if event.get("dedup"):
                sources["dedup"] += 1
            elif event.get("source") == "cache":
                sources["cache"] += 1
            else:
                sources["simulated"] += 1
                durations.append(event["duration"])
            insts += row.stats.instructions
            cycles += row.stats.cycles
            checker.check(SCALE, overrides, cell[0], cell[1],
                          payload(row.stats))
        for cell in sorted(expected - seen):
            checker.fail(f"{tag} job {record['index']} {cell}: "
                         f"{record['error'] or 'no cell event'}")
        if record["error"] is None and "done" in record:
            latencies[record["index"]] = scaled(
                record["done"] - record["start"], record["probe_before"],
                record["probe_after"])
        if spans is not None and "done" in record:
            group = f"{tag}/job{record['index']}"
            root = spans.add("service.job", record["start"],
                             record["done"], group)
            spans.add("service.submit", record["start"],
                      record["submitted"], group, root)
            first = record.get("first_cell", record["done"])
            spans.add("service.first_cell", record["submitted"], first,
                      group, root)
            spans.add("service.stream", first, record["done"], group, root)
    get_s, cache_mb = _cache_probe(server.cache, records)
    shutil.rmtree(workdir, ignore_errors=True)
    probes = median([r[k] for r in records
                     for k in ("probe_before", "probe_after")])
    return {"setup": server.setup_s, "wall": scaled(wall, probes, probes),
            "raw_wall": wall, "rss": rss,
            "jobs": len(jobs),
            "latencies": latencies, "sources": sources,
            "durations": durations, "insts": insts, "cycles": cycles,
            "cache_get_s": get_s, "cache_mb": cache_mb}


def design_sweep(rng, seconds: float, trace: bool) -> dict:
    """Identical passes, each on a fresh server, until ``seconds`` pass:
    at least ``MIN_PASSES`` untraced ones, or with ``trace`` at least one
    untraced and one traced pass in turn."""
    checker = Checker()
    spans = Spans() if trace else None
    jobs = make_jobs(rng, KERNELS)
    base = OUT / f"design-sweep-{time.time_ns()}"
    passes: Dict[bool, List[dict]] = {False: [], True: []}
    start = time.perf_counter()
    number = 0
    try:
        while (len(passes[False]) < (1 if trace else MIN_PASSES)
               or time.perf_counter() - start < seconds):
            for traced in ((False, True) if trace else (False,)):
                passes[traced].append(_one_pass(
                    jobs, base / f"pass{number}", checker,
                    spans if traced else None, f"pass{number}"))
                number += 1
        setups = [p["setup"] for p in passes[False] + passes[True]]
        while len(setups) < SETUP_MIN:
            server = Server(base / f"setup{len(setups)}")
            server.stop()
            setups.append(server.setup_s)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return {"setup": setups, "passes": passes[False],
            "traced": passes[True], "checker": checker, "spans": spans}
