"""The sweep backend: persistent fleet, shared cache, in-flight dedup.

:class:`SweepService` is the HTTP-free heart of the service (the
asyncio HTTP framing in :mod:`repro.service.server` is a thin shell
around it, and the tests drive it directly).  It owns three layers of
work avoidance, checked in order for every requested cell:

1. **In-flight dedup** — one future per live cell key; any number of
   concurrent jobs needing the same cell await the same future, so an
   identical sweep submitted by N clients simulates each cell exactly
   once and fans the result out to all N subscribers.
2. **The shared results cache** — the same content-addressed
   :class:`~repro.harness.results_cache.ResultsCache` the CLI uses
   (optionally size-bounded with LRU eviction), so a warm resubmission
   performs zero simulations and ad-hoc ``repro sweep`` runs interop
   with the service's store.
3. **The worker fleet** — one process pool built on the sharded
   engine's :func:`~repro.harness.parallel._execute_cell` runner
   (same SIGALRM per-cell timeout, same retry-once-then-record fault
   discipline), *persistent across jobs* so workers keep their
   process-global trace caches warm between submissions.

Every job keeps an append-only event history; subscribers replay it
from the start and then follow live, so attaching late (or re-reading
a finished job) always yields the complete stream.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, process
from typing import AsyncIterator, Callable, Dict, List, Optional, Union

from ..harness.parallel import (CellResult, CellSpec, _execute_cell,
                                _execute_group, _pool_context,
                                resolve_jobs, simulate_cell)
from ..harness.results_cache import (CACHE_ENV_VAR, ResultsCache,
                                     parse_size)
from .protocol import WIRE_VERSION, cell_event
from .spec import JobSpec


class Job:
    """One submitted sweep: spec, event history, completion state."""

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.created = time.time()
        self.events: List[dict] = []
        self.done = False
        # Per-job accounting (mutually exclusive per cell).
        self.simulated = 0
        self.cache_hits = 0
        self.deduped = 0
        self.failures = 0
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

    def status(self) -> dict:
        return {
            "id": self.id,
            "done": self.done,
            "cells": (len(self.spec.workloads)
                      * len(self.spec.models)),
            "resolved": (self.simulated + self.cache_hits
                         + self.deduped),
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "failures": self.failures,
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
                 retries: int = 1,
                 runner: Optional[Callable[[CellSpec], object]] = None):
        self.workers = resolve_jobs(jobs)
        self.timeout = timeout
        self.retries = retries
        self.runner = runner or simulate_cell
        self._ephemeral_root: Optional[str] = None
        if isinstance(results_cache, ResultsCache):
            self.store = results_cache
        else:
            root = results_cache or os.environ.get(CACHE_ENV_VAR)
            if root is None:
                # The service always has a shared store: without a
                # configured directory it lives (and dies) with the
                # server process.
                root = tempfile.mkdtemp(prefix="repro-serve-cache-")
                self._ephemeral_root = root
            self.store = ResultsCache(
                root, max_bytes=parse_size(cache_max_bytes))
        self._pool: Optional[ProcessPoolExecutor] = None
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
        cells = spec.cells()
        keys = spec.cell_keys(self.store.tree_digest)
        await job.append({
            "kind": "job",
            "id": job.id,
            "key": spec.job_key(self.store.tree_digest),
            "cells": len(cells),
            "workers": self.workers,
            "wire_version": WIRE_VERSION,
        })
        # Group the job's cells by workload: one fleet task per group,
        # so every model of a workload runs on the same worker and
        # shares one trace build (mirroring the batch engine's
        # grouped dispatch).
        groups: Dict[str, List[CellSpec]] = {}
        for cell in cells:
            groups.setdefault(cell.workload, []).append(cell)
        tasks = [
            asyncio.ensure_future(self._resolve_group(
                group, keys, spec.timeout))
            for group in groups.values()
        ]
        for future in asyncio.as_completed(tasks):
            for result, source, dedup in await future:
                if dedup:
                    job.deduped += 1
                elif source == "cache":
                    job.cache_hits += 1
                else:
                    job.simulated += 1
                if not result.ok:
                    job.failures += 1
                await job.append(cell_event(result, source=source,
                                            dedup=dedup))
        await job.append({
            "kind": "done",
            "id": job.id,
            "cells": len(cells),
            "simulated": job.simulated,
            "cache_hits": job.cache_hits,
            "deduped": job.deduped,
            "failures": job.failures,
            "elapsed": round(time.perf_counter() - start, 6),
        }, final=True)

    # -- cell resolution ------------------------------------------------

    def _settle(self, key: str, result: CellResult, source: str) -> None:
        """Account for a resolved cell and fan it out to subscribers."""
        future = self._inflight.pop(key, None)
        if result.ok:
            if source == "cache":
                self.counters["cells_cached"] += 1
            else:
                self.counters["cells_simulated"] += 1
        else:
            self.counters["cells_failed"] += 1
        if future is not None and not future.done():
            future.set_result((result, source))

    async def _resolve_group(self, cells: List[CellSpec], keys: Dict,
                             timeout: Optional[float]):
        """One workload group through the dedup -> cache -> fleet layers.

        Returns one ``(CellResult, source, dedup)`` per cell, in cell
        order.  The cells that actually need simulation are dispatched
        to the fleet as a single batch, so one worker resolves the whole
        group over a shared trace build.  Never raises: faults
        become failure rows, exactly like the batch engine.
        """
        loop = asyncio.get_running_loop()
        outcomes: Dict[int, tuple] = {}
        attached: Dict[int, asyncio.Future] = {}
        fresh: List[tuple] = []
        for index, cell in enumerate(cells):
            key = keys[(cell.workload, cell.model)]
            self.counters["cells_requested"] += 1
            pending = self._inflight.get(key)
            if pending is not None:
                # Another job is already resolving this cell: attach.
                self.counters["cells_deduped"] += 1
                attached[index] = pending
                continue
            self._inflight[key] = loop.create_future()
            fresh.append((index, key, cell))
        try:
            to_run: List[tuple] = []
            for index, key, cell in fresh:
                # Cache probes are tiny pickle reads, but they still
                # leave the loop so a slow/networked filesystem cannot
                # stall the server.
                stats = await loop.run_in_executor(None, self.store.get,
                                                   key)
                if stats is not None:
                    result = CellResult(cell.workload, cell.model,
                                        stats=stats, cached=True)
                    self._settle(key, result, "cache")
                    outcomes[index] = (result, "cache", False)
                else:
                    to_run.append((index, key, cell))
            if to_run:
                cell_timeout = (timeout if timeout is not None
                                else self.timeout)
                batch = await self._run_group_on_fleet(
                    [cell for _, _, cell in to_run], cell_timeout)
                for (index, key, cell), result in zip(to_run, batch):
                    for attempt in range(2, self.retries + 2):
                        if result.ok:
                            break
                        result = await self._run_on_fleet(cell,
                                                          cell_timeout)
                        result.attempts = attempt
                    if result.ok:
                        await loop.run_in_executor(None, self.store.put,
                                                   key, result.stats)
                    self._settle(key, result, "simulated")
                    outcomes[index] = (result, "simulated", False)
        except Exception as exc:  # pragma: no cover - defensive
            for index, key, cell in fresh:
                if index not in outcomes:
                    result = CellResult(
                        cell.workload, cell.model,
                        error=f"{type(exc).__name__}: {exc}")
                    self._settle(key, result, "simulated")
                    outcomes[index] = (result, "simulated", False)
        for index, pending in attached.items():
            result, source = await asyncio.shield(pending)
            outcomes[index] = (result, source, True)
        return [outcomes[index] for index in range(len(cells))]

    async def _run_group_on_fleet(self, specs: List[CellSpec],
                                  timeout: Optional[float]
                                  ) -> List[CellResult]:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._ensure_pool(), _execute_group, specs, self.runner,
                timeout)
        except process.BrokenProcessPool:
            self._shutdown_pool(wait=False)
            return [CellResult(spec.workload, spec.model,
                               error="worker process died (broken pool)")
                    for spec in specs]
        except Exception as exc:  # pragma: no cover - defensive
            return [CellResult(spec.workload, spec.model,
                               error=f"{type(exc).__name__}: {exc}")
                    for spec in specs]

    async def _run_on_fleet(self, spec: CellSpec,
                            timeout: Optional[float]) -> CellResult:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._ensure_pool(), _execute_cell, spec, self.runner,
                timeout)
        except process.BrokenProcessPool:
            # A worker died hard (OOM kill, segfault).  Drop the pool
            # so the next attempt rebuilds a fresh fleet.
            self._shutdown_pool(wait=False)
            return CellResult(spec.workload, spec.model,
                              error="worker process died (broken pool)")
        except Exception as exc:  # pragma: no cover - defensive
            return CellResult(spec.workload, spec.model,
                              error=f"{type(exc).__name__}: {exc}")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_pool_context())
        return self._pool

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

    def _shutdown_pool(self, wait: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def shutdown(self) -> None:
        """Reap the fleet (no orphan workers) and drop ephemeral state."""
        for job in self._jobs.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()
        self._shutdown_pool(wait=True)
        if self._ephemeral_root is not None:
            shutil.rmtree(self._ephemeral_root, ignore_errors=True)
            self._ephemeral_root = None


__all__ = ["Job", "SweepService"]
