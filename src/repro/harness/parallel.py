"""The experiment engine: one route from a cell grid to its results.

The (model, workload, config) cell grid of a sweep is embarrassingly
parallel: every cell replays its own functionally-executed trace, and
every simulator is deterministic, so fanning cells out over a process
pool must produce *bit-identical* stats to a serial
:func:`~repro.harness.experiment.run_matrix` — the equivalence tests in
``tests/harness/test_parallel_matrix.py`` enforce exactly that.

Both :func:`sweep` and the sweep service
(:class:`~repro.service.jobs.SweepService`) run cells through this
module, and each of its decisions is made here only:

* **Grouping** — :func:`group_cells` splits a grid by workload cell
  (same workload, scale, compile options and budget); every model of a
  group runs back-to-back on one worker, sharing one trace build via
  the worker's process-global
  :class:`~repro.harness.experiment.TraceCache`.
* **Cache and retry** — :func:`resolve_cells` takes one group through
  result-cache reads, one attempt on the :class:`Fleet`, a retry of
  each failed cell *alone* in a one-shot single-worker process (so a
  cell that kills its worker fails only itself), and cache writes.
  Every cell runs under a ``SIGALRM`` interval timer inside its worker
  (the simulators are pure Python, so the signal interrupts even a
  wedged loop); a cell that still fails becomes a :class:`CellResult`
  failure row, so one bad cell degrades a sweep instead of crashing it.
* **Pool ownership** — :class:`Fleet` builds the fork-context process
  pool on first use and replaces it once a worker has died.

:func:`resolve_cells` is a generator that yields each
``concurrent.futures.Future`` it waits on, so :func:`sweep` drives many
groups with :func:`concurrent.futures.wait` and the service awaits the
same futures on its event loop with :func:`asyncio.wrap_future`.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple, Union)

import multiprocessing

from ..compiler import CompileOptions
from ..machine import MachineConfig
from ..pipeline import SimStats
from ..workloads import ALL_WORKLOADS
from .experiment import Matrix, TraceCache, run_model
from .results_cache import ResultsCache, fingerprint, resolve_results_cache

#: Environment variable that supplies a default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Matches :class:`TraceCache`'s functional-execution budget.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000

#: Extra attempts a failed cell gets before it becomes a failure row.
RETRIES = 1


def resolve_jobs(value: Union[None, int, str] = None) -> int:
    """Worker count: explicit argument, else $REPRO_JOBS, else 1 (serial).

    ``"auto"`` or any value < 1 means one worker per available CPU.
    """
    if value is None:
        value = os.environ.get(JOBS_ENV_VAR) or 1
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return os.cpu_count() or 1
        value = int(value)
    if value < 1:
        return os.cpu_count() or 1
    return value


@dataclass(frozen=True)
class CellSpec:
    """Everything a worker needs to simulate one sweep cell."""

    workload: str
    model: str
    scale: float = 1.0
    compile_options: CompileOptions = field(default_factory=CompileOptions)
    config: MachineConfig = field(default_factory=MachineConfig)
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: Collect an aggregated telemetry summary for this cell (a
    #: :meth:`~repro.telemetry.metrics.MetricsSink.summary` dict).
    #: Never part of the result-cache key: tracing does not change
    #: stats, so cached entries stay valid either way.
    telemetry: bool = False
    #: Post-check the simulated cycles against the static cycle lower
    #: bound (:func:`repro.analysis.audit.check_bound`); a violation
    #: surfaces as an ``AuditViolation: ...`` failure row.  Like
    #: ``telemetry``, never part of the result-cache key.
    audit: bool = False


@dataclass
class CellResult:
    """Outcome of one cell: stats on success, an error row otherwise."""

    workload: str
    model: str
    stats: Optional[SimStats] = None
    error: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0
    #: Where the stats came from: ``"simulated"`` or ``"cache"``.
    source: str = "simulated"
    #: Served by another service job's in-flight resolution of the cell.
    deduped: bool = False
    #: Aggregated telemetry summary (when the cell's spec asked for one).
    telemetry: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its time budget."""


class SweepError(RuntimeError):
    """Raised by :func:`run_matrix` when cells fail even after retry."""


#: Per-process trace caches, keyed by (scale, compile fingerprint,
#: budget) — pool workers are reused across cells, so each worker
#: functionally executes any given workload at most once.
_WORKER_TRACES: Dict[Tuple[float, str, int], TraceCache] = {}

#: Per-process trace-build log, keyed by (workload, scale): how many
#: times this process functionally executed that workload.  Grouped
#: dispatch (:func:`group_cells`) keeps this at one per key — every
#: model of a workload lands on the same worker — which the
#: trace-amortization tests pin.
_TRACE_BUILDS: Dict[Tuple[str, float], int] = {}


def _worker_trace(spec: CellSpec):
    key = (spec.scale, fingerprint(spec.compile_options),
           spec.max_instructions)
    cache = _WORKER_TRACES.get(key)
    if cache is None:
        cache = TraceCache(spec.scale, compile_options=spec.compile_options,
                           max_instructions=spec.max_instructions)
        _WORKER_TRACES[key] = cache
    if spec.workload not in cache:
        cell = (spec.workload, spec.scale)
        _TRACE_BUILDS[cell] = _TRACE_BUILDS.get(cell, 0) + 1
    return cache.trace(spec.workload)


def simulate_cell(spec: CellSpec) -> SimStats:
    """The production cell runner: build/reuse the trace, run the model.

    With ``spec.telemetry`` set, the run is traced into an aggregating
    :class:`~repro.telemetry.metrics.MetricsSink` (bounded memory, no
    event storage) and a ``(stats, summary)`` tuple is returned; the
    stats themselves are bit-identical to an untraced run.
    """
    trace = _worker_trace(spec)
    if not spec.telemetry:
        stats, telemetry = run_model(spec.model, trace, spec.config), None
    else:
        from ..telemetry import MetricsSink, Tracer

        sink = MetricsSink()
        stats = run_model(spec.model, trace, spec.config,
                          tracer=Tracer(sink))
        telemetry = sink.summary()
    if spec.audit:
        from ..analysis.audit import check_bound

        check_bound(stats, trace, spec.model, spec.workload)
    return stats if telemetry is None else (stats, telemetry)


def _raise_timeout(signum, frame):
    raise CellTimeout()


def _execute_cell(spec: CellSpec, runner: Callable[[CellSpec], SimStats],
                  timeout: Optional[float]) -> CellResult:
    """Run one cell under the per-cell timer, never letting it raise."""
    start = time.perf_counter()
    # SIGALRM is only available on the main thread of a process; pool
    # workers run tasks there, as does the in-process jobs=1 path.
    arm = (timeout is not None and hasattr(signal, "SIGALRM")
           and threading.current_thread() is threading.main_thread())
    previous = None
    try:
        if arm:
            previous = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        outcome = runner(spec)
        # Telemetry-collecting runners return (stats, summary).
        if isinstance(outcome, tuple):
            stats, telemetry = outcome
        else:
            stats, telemetry = outcome, None
        return CellResult(spec.workload, spec.model, stats=stats,
                          duration=time.perf_counter() - start,
                          telemetry=telemetry)
    except CellTimeout:
        return CellResult(spec.workload, spec.model,
                          error=f"timed out after {timeout:g}s",
                          duration=time.perf_counter() - start)
    except Exception as exc:
        return CellResult(spec.workload, spec.model,
                          error=f"{type(exc).__name__}: {exc}",
                          duration=time.perf_counter() - start)
    finally:
        if arm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _pool_context():
    # fork keeps already-imported test/runner modules visible to workers
    # and skips re-importing the simulator; fall back where unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _group_key(spec: CellSpec) -> Tuple[str, float, str, int]:
    """Cells sharing this key replay the same trace (workload cell)."""
    return (spec.workload, spec.scale, fingerprint(spec.compile_options),
            spec.max_instructions)


def group_cells(specs: Sequence[CellSpec]) -> List[List[CellSpec]]:
    """Split cells into workload groups, in first-appearance order."""
    groups: Dict[Tuple[str, float, str, int], List[CellSpec]] = {}
    for spec in specs:
        groups.setdefault(_group_key(spec), []).append(spec)
    return list(groups.values())


def _execute_group(specs: Sequence[CellSpec],
                   runner: Callable[[CellSpec], SimStats],
                   timeout: Optional[float]) -> List[CellResult]:
    """Run one workload group's cells back-to-back in this worker.

    All cells of the group share a trace, so the worker pays one trace
    build for the whole group; each cell still runs under its own
    SIGALRM budget.
    """
    return [_execute_cell(spec, runner, timeout) for spec in specs]


class Fleet:
    """The worker pool: built on first use, replaced once a worker dies.

    :func:`sweep` holds one for the length of a call; the service holds
    one for its lifetime, so workers keep their process-global trace
    caches warm between jobs.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def submit(self, specs: Sequence[CellSpec],
               runner: Callable[[CellSpec], SimStats],
               timeout: Optional[float]) -> Future:
        """Run a group on one worker; the future holds its rows."""
        if self._pool is not None:
            try:
                return self._pool.submit(_execute_group, specs, runner,
                                         timeout)
            except BrokenProcessPool:
                # A worker died since the last submit: the pool refuses
                # work from then on, so drop it for a fresh one.
                self.shutdown(wait=False)
        self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                         mp_context=_pool_context())
        return self._pool.submit(_execute_group, specs, runner, timeout)

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None


def _outcome(future: Future,
             specs: Sequence[CellSpec]) -> List[CellResult]:
    """The rows of a finished attempt; a dead worker fails all of them."""
    try:
        return future.result()
    except BrokenProcessPool:
        error = "worker process died (broken pool)"
    except Exception as exc:  # pragma: no cover - e.g. unpicklable runner
        error = f"{type(exc).__name__}: {exc}"
    return [CellResult(spec.workload, spec.model, error=error)
            for spec in specs]


def resolve_cells(specs: Sequence[CellSpec], keys: Sequence[str],
                  store: Optional[ResultsCache], fleet: Optional[Fleet],
                  runner: Callable[[CellSpec], SimStats],
                  timeout: Optional[float]
                  ) -> Generator[Future, None, List[CellResult]]:
    """Resolve one workload group: cache, attempt, retry, store.

    ``keys`` are the cells' result-cache keys (ignored without a
    ``store``).  Cells asking for telemetry or an audit need a live
    run, so they skip cache reads; fresh stats are stored either way.
    The group's uncached cells run as one batch on ``fleet``, or in
    this process when ``fleet`` is None; each cell that fails is then
    retried alone, on the pooled path in a one-shot single-worker
    process, so a cell that kills its worker fails only itself.

    A generator: it yields each future it waits on and returns the
    group's rows in spec order.
    """
    rows: List[Optional[CellResult]] = [None] * len(specs)
    if store is not None:
        for index, spec in enumerate(specs):
            if spec.telemetry or spec.audit:
                continue
            stats = store.get(keys[index])
            if stats is not None:
                rows[index] = CellResult(spec.workload, spec.model,
                                         stats=stats, source="cache")
    todo = [index for index, row in enumerate(rows) if row is None]
    if not todo:
        return rows
    batch = [specs[index] for index in todo]
    if fleet is None:
        done = _execute_group(batch, runner, timeout)
    else:
        future = fleet.submit(batch, runner, timeout)
        yield future
        done = _outcome(future, batch)
    for index, row in zip(todo, done):
        spec = specs[index]
        for attempt in range(2, RETRIES + 2):
            if row.ok:
                break
            if fleet is None:
                row = _execute_cell(spec, runner, timeout)
            else:
                alone = Fleet(1)
                future = alone.submit([spec], runner, timeout)
                yield future
                alone.shutdown()
                [row] = _outcome(future, [spec])
            row.attempts = attempt
        if row.ok and store is not None:
            store.put(keys[index], row.stats)
        rows[index] = row
    return rows


@dataclass
class SweepReport:
    """A completed sweep: the matrix plus operability accounting.

    ``simulated`` and ``cache_hits`` count the cells that succeeded by
    each route; ``deduped`` counts the cells a service job took from
    another job's in-flight resolution, failed or not.  Failed cells
    are listed in ``failures`` and absent from ``matrix``.
    """

    matrix: Matrix
    failures: List[CellResult] = field(default_factory=list)
    cells: int = 0
    simulated: int = 0
    cache_hits: int = 0
    deduped: int = 0
    cache_stores: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    #: The service job this report follows; empty for a local sweep.
    job_id: str = ""
    #: (workload, model) -> aggregated telemetry summary dict, for the
    #: cells that were simulated with ``telemetry=True``.  Cells served
    #: from the result cache carry no summary (stats only are cached).
    telemetry: Dict[Tuple[str, str], dict] = field(default_factory=dict)

    def add(self, result: CellResult) -> None:
        """Fold one resolved cell into the matrix and the counters."""
        cell = (result.workload, result.model)
        if result.ok:
            self.matrix.results[cell] = result.stats
            if result.telemetry is not None:
                self.telemetry[cell] = result.telemetry
        else:
            self.failures.append(result)
        if result.deduped:
            self.deduped += 1
        elif result.source == "cache":
            self.cache_hits += 1
        elif result.ok:
            self.simulated += 1

    @property
    def resolved(self) -> int:
        """Cells with a row so far, succeeded or failed."""
        return len(self.matrix.results) + len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        rate = (f", {self.cells / self.elapsed:.1f} cells/s"
                if self.elapsed > 0 else "")
        label = f"job {self.job_id}" if self.job_id else "sweep"
        deduped = f"{self.deduped} deduped, " if self.deduped else ""
        lines = [
            f"{label}: {self.cells} cell(s) on {self.jobs} worker(s) in "
            f"{self.elapsed:.1f}s total wall time{rate} — "
            f"{self.simulated} simulated, "
            f"{self.cache_hits} from cache, {deduped}"
            f"{len(self.failures)} failed"
        ]
        lines.extend(
            f"  FAILED {failure.workload}/{failure.model} after "
            f"{failure.attempts} attempt(s): {failure.error}"
            for failure in self.failures)
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        if self.failures:
            raise SweepError(self.summary())


def sweep(models: Sequence[str],
          workloads: Sequence[str] = ALL_WORKLOADS,
          *,
          config: Optional[MachineConfig] = None,
          scale: float = 1.0,
          compile_options: Optional[CompileOptions] = None,
          max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
          jobs: Union[None, int, str] = None,
          results_cache: Union[None, str, ResultsCache] = None,
          timeout: Optional[float] = None,
          runner: Optional[Callable[[CellSpec], SimStats]] = None,
          telemetry: bool = False,
          audit: bool = False
          ) -> SweepReport:
    """Run the full cell grid; always returns a report, never hangs.

    Failed cells (after :data:`RETRIES` extra attempts each) appear in
    ``report.failures`` and are absent from ``report.matrix``.

    ``telemetry=True`` traces every simulated cell into an aggregating
    metrics sink and records the per-cell summaries in
    ``report.telemetry``.  Summaries require a live simulation, so
    telemetry sweeps skip result-cache *reads* (fresh results are still
    stored); stats remain bit-identical, keeping the cache safe.

    ``audit=True`` post-checks every simulated cell against the static
    cycle lower bound; a sub-physical result becomes an
    ``AuditViolation`` failure row.  The check needs the worker's trace,
    so audit sweeps also skip result-cache reads.
    """
    start = time.perf_counter()
    # Resolved at call time so tests can swap the module-level default.
    runner = runner or simulate_cell
    jobs = resolve_jobs(jobs)
    store = resolve_results_cache(results_cache)
    config = config or MachineConfig()
    compile_options = compile_options or CompileOptions()

    specs = [CellSpec(workload, model, scale, compile_options, config,
                      max_instructions, telemetry=telemetry, audit=audit)
             for workload in workloads for model in models]
    report = SweepReport(matrix=Matrix(scale=scale), cells=len(specs),
                         jobs=jobs)
    groups = group_cells(specs)
    fleet = Fleet(min(jobs, len(groups))) if jobs > 1 else None
    rows: Dict[Tuple[str, str], CellResult] = {}
    running: Dict[Future, Generator] = {}

    def advance(steps: Generator) -> None:
        try:
            running[next(steps)] = steps
        except StopIteration as finished:
            for row in finished.value:
                rows[(row.workload, row.model)] = row

    try:
        for group in groups:
            keys = [store.key_for(spec.workload, spec.model, spec.scale,
                                  spec.compile_options, spec.config,
                                  spec.max_instructions)
                    for spec in group] if store is not None else []
            advance(resolve_cells(group, keys, store, fleet, runner,
                                  timeout))
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                advance(running.pop(future))
    finally:
        if fleet is not None:
            fleet.shutdown()

    # Fold in grid order, whatever order the groups finished in.
    for spec in specs:
        report.add(rows[(spec.workload, spec.model)])
    if store is not None:
        report.cache_stores = report.simulated
    report.elapsed = time.perf_counter() - start
    return report


__all__ = [
    "CellResult", "CellSpec", "CellTimeout", "DEFAULT_MAX_INSTRUCTIONS",
    "Fleet", "JOBS_ENV_VAR", "RETRIES", "SweepError", "SweepReport",
    "group_cells", "resolve_cells", "resolve_jobs", "simulate_cell",
    "sweep",
]
