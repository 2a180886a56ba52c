"""The sweep backend: in-flight dedup over the shared experiment engine.

:class:`SweepService` is the HTTP-free heart of the service (the
asyncio HTTP framing in :mod:`repro.service.server` is a thin shell
around it, and the tests drive it directly).  Every requested cell is
first checked against the one thing only the service does:

* **In-flight dedup** — one future per live cell key; any number of
  concurrent jobs needing the same cell await the same future, so an
  identical sweep submitted by N clients simulates each cell exactly
  once and fans the result out to all N subscribers.

The cells no other job is resolving go, grouped by workload cell,
through the engine of :mod:`repro.harness.parallel` — the same route
``repro sweep`` takes: the shared results cache (the CLI's
content-addressed :class:`~repro.harness.results_cache.ResultsCache`,
optionally size-bounded, so a warm resubmission performs zero
simulations), one attempt on the worker :class:`~repro.harness.parallel.
Fleet`, and a retry of each failed cell alone in a one-shot process.
The service holds its fleet for its lifetime, so workers keep their
process-global trace caches warm between submissions.  It awaits the
engine's futures on the event loop without a thread hop; the cache
reads and writes around them are small local file operations and run
on the loop too.

Every job keeps an append-only event history; subscribers replay it
from the start and then follow live, so attaching late (or re-reading
a finished job) always yields the complete stream.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import shutil
import tempfile
import time
from typing import AsyncIterator, Callable, Dict, List, Optional, Union

from ..harness.experiment import Matrix
from ..harness.parallel import (CellResult, CellSpec, Fleet, SweepReport,
                                group_cells, resolve_cells, resolve_jobs,
                                simulate_cell)
from ..harness.results_cache import ResultsCache, resolve_results_cache
from .protocol import WIRE_VERSION, cell_event
from .spec import JobSpec


async def _drive(steps) -> List[CellResult]:
    """Run :func:`resolve_cells` on the loop, awaiting each future."""
    while True:
        try:
            future = next(steps)
        except StopIteration as finished:
            return finished.value
        with contextlib.suppress(Exception):
            # resolve_cells reads the outcome off the future itself.
            await asyncio.wrap_future(future)


class Job:
    """One submitted sweep: spec, event history, completion state."""

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.created = time.time()
        self.events: List[dict] = []
        self.done = False
        self.report = SweepReport(
            matrix=Matrix(scale=spec.scale),
            cells=len(spec.workloads) * len(spec.models))
        self._new_event = asyncio.Condition()
        self.task: Optional[asyncio.Task] = None

    async def append(self, event: dict, *, final: bool = False) -> None:
        async with self._new_event:
            self.events.append(event)
            if final:
                self.done = True
            self._new_event.notify_all()

    async def stream(self) -> AsyncIterator[dict]:
        """Replay history, then follow live events until ``done``."""
        cursor = 0
        while True:
            async with self._new_event:
                await self._new_event.wait_for(
                    lambda: len(self.events) > cursor or self.done)
                chunk = self.events[cursor:]
                cursor = len(self.events)
                finished = self.done
            for event in chunk:
                yield event
            if finished:
                return

    def counts(self) -> dict:
        """Per-job accounting; the first three partition the cells."""
        report = self.report
        return {
            # A failed cell this job scheduled itself counts here too.
            "simulated": (report.resolved - report.cache_hits
                          - report.deduped),
            "cache_hits": report.cache_hits,
            "deduped": report.deduped,
            "failures": len(report.failures),
        }

    def status(self) -> dict:
        return {
            "id": self.id,
            "done": self.done,
            "cells": self.report.cells,
            "resolved": self.report.resolved,
            **self.counts(),
            "events": len(self.events),
        }


class SweepService:
    """A long-running sweep backend shared by many clients.

    All public methods must run on the service's event loop (the HTTP
    layer guarantees that); only the simulations themselves leave the
    loop, onto the process fleet.
    """

    def __init__(self, *,
                 jobs: Union[None, int, str] = None,
                 results_cache: Union[None, str, ResultsCache] = None,
                 cache_max_bytes: Union[None, int, str] = None,
                 timeout: Optional[float] = None,
                 runner: Optional[Callable[[CellSpec], object]] = None):
        self.workers = resolve_jobs(jobs)
        self.timeout = timeout
        self.runner = runner or simulate_cell
        self._ephemeral_root: Optional[str] = None
        store = resolve_results_cache(results_cache, cache_max_bytes)
        if store is None:
            # The service always has a shared store: without a
            # configured directory it lives (and dies) with the server
            # process.
            self._ephemeral_root = tempfile.mkdtemp(
                prefix="repro-serve-cache-")
            store = ResultsCache(self._ephemeral_root,
                                 max_bytes=cache_max_bytes)
        self.store = store
        self.fleet = Fleet(self.workers)
        self._inflight: Dict[str, asyncio.Future] = {}
        self._jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._stop = asyncio.Event()
        self.started = time.time()
        self.counters = {
            "jobs": 0,
            "cells_requested": 0,
            "cells_simulated": 0,
            "cells_cached": 0,
            "cells_deduped": 0,
            "cells_failed": 0,
        }

    # -- job lifecycle --------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Register a job and start resolving its cells."""
        job = Job(f"job-{next(self._ids)}", spec)
        self._jobs[job.id] = job
        self.counters["jobs"] += 1
        job.task = asyncio.ensure_future(self._run_job(job))
        return job

    def job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    async def _run_job(self, job: Job) -> None:
        start = time.perf_counter()
        spec = job.spec
        keys = spec.cell_keys(self.store.tree_digest)
        await job.append({
            "kind": "job",
            "id": job.id,
            "key": spec.job_key(self.store.tree_digest),
            "cells": job.report.cells,
            "workers": self.workers,
            "wire_version": WIRE_VERSION,
        })
        timeout = spec.timeout if spec.timeout is not None else self.timeout
        tasks = [asyncio.ensure_future(self._resolve(group, keys, timeout))
                 for group in group_cells(spec.cells())]
        for future in asyncio.as_completed(tasks):
            for result in await future:
                job.report.add(result)
                await job.append(cell_event(result))
        await job.append({
            "kind": "done",
            "id": job.id,
            "cells": job.report.cells,
            **job.counts(),
            "elapsed": round(time.perf_counter() - start, 6),
        }, final=True)

    # -- cell resolution ------------------------------------------------

    async def _resolve(self, cells: List[CellSpec], keys: Dict,
                       timeout: Optional[float]) -> List[CellResult]:
        """One workload group: attach to in-flight cells, run the rest.

        Never raises: faults become failure rows, exactly like
        ``repro sweep``.
        """
        loop = asyncio.get_running_loop()
        fresh: List[CellSpec] = []
        fresh_keys: List[str] = []
        attached: List[asyncio.Future] = []
        for cell in cells:
            key = keys[(cell.workload, cell.model)]
            self.counters["cells_requested"] += 1
            pending = self._inflight.get(key)
            if pending is None:
                self._inflight[key] = loop.create_future()
                fresh.append(cell)
                fresh_keys.append(key)
            else:
                # Another job is already resolving this cell: attach.
                self.counters["cells_deduped"] += 1
                attached.append(pending)
        try:
            rows = await _drive(resolve_cells(
                fresh, fresh_keys, self.store, self.fleet, self.runner,
                timeout))
        except Exception as exc:  # pragma: no cover - defensive
            # Settle every fresh cell anyway: other jobs may be
            # attached to them.
            rows = [CellResult(cell.workload, cell.model,
                               error=f"{type(exc).__name__}: {exc}")
                    for cell in fresh]
        for key, result in zip(fresh_keys, rows):
            self._settle(key, result)
        for pending in attached:
            result = await asyncio.shield(pending)
            rows.append(dataclasses.replace(result, deduped=True))
        return rows

    def _settle(self, key: str, result: CellResult) -> None:
        """Account for a resolved cell and fan it out to subscribers."""
        if not result.ok:
            self.counters["cells_failed"] += 1
        elif result.source == "cache":
            self.counters["cells_cached"] += 1
        else:
            self.counters["cells_simulated"] += 1
        self._inflight.pop(key).set_result(result)

    # -- operability ----------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "stopping" if self._stop.is_set() else "ok",
            "wire_version": WIRE_VERSION,
            "workers": self.workers,
            "uptime": round(time.time() - self.started, 3),
            "counters": dict(self.counters),
            "inflight_cells": len(self._inflight),
            "active_jobs": sum(1 for job in self._jobs.values()
                               if not job.done),
            "jobs": len(self._jobs),
            "cache": self.store.describe_dict(),
        }

    def request_stop(self) -> None:
        self._stop.set()

    async def wait_stopped(self) -> None:
        await self._stop.wait()

    def shutdown(self) -> None:
        """Reap the fleet (no orphan workers) and drop ephemeral state."""
        for job in self._jobs.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()
        self.fleet.shutdown()
        if self._ephemeral_root is not None:
            shutil.rmtree(self._ephemeral_root, ignore_errors=True)
            self._ephemeral_root = None


__all__ = ["Job", "SweepService"]
