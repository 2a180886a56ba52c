"""Shared pieces of the benchmark: paths, cell digests, checks, spans.

Everything here is stdlib-only until :func:`require_source` has put the
checkout's ``src/`` on ``sys.path``; the simulator itself is imported
lazily by the functions that need it.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
GOLDEN_DIR = ROOT / "tests" / "golden"

KERNELS = ("bzip2", "crafty", "gap", "gzip", "mcf", "parser", "twolf",
           "vpr", "ammp", "art", "equake", "mesa")
PRIMARY = ("inorder", "multipass", "runahead", "ooo", "ooo-realistic")
VARIANTS = PRIMARY + ("multipass-noregroup", "multipass-norestart",
                      "multipass-hwrestart", "twopass")
#: The package (layer) that implements each model.
MODULE_OF = {"inorder": "pipeline", "multipass": "multipass",
             "runahead": "runahead", "ooo": "ooo", "ooo-realistic": "ooo",
             "multipass-noregroup": "multipass",
             "multipass-norestart": "multipass",
             "multipass-hwrestart": "multipass", "twopass": "multipass"}

#: Modules every workload imports before its set-up is timed; a fresh
#: interpreter importing these is the "imports" part of ``setup_s``.
IMPORTS = ("repro.harness.experiment", "repro.analysis.audit",
           "repro.telemetry", "repro.service.client")

#: Host-speed scaling.  The CPU of a shared host runs 20-50% slower in
#: stretches that last from seconds to minutes, and the simulator slows
#: with it.  So every end-to-end time is measured between two runs of
#: ``speed_probe`` and multiplied by REFERENCE_PROBE_S over their mean:
#: it is reported at the host speed at which the probe takes
#: REFERENCE_PROBE_S, the fastest it ran on the host this was built on.
PROBE_ITERATIONS = 10_000
REFERENCE_PROBE_S = 0.00106

#: Paper headline ratios (EXPERIMENTS.md, Section 5.2) behind paper_error.
PAPER_RATIOS = {"mp_over_inorder": 1.36, "ooo_over_mp": 1.14,
                "runahead_share": 0.5, "mp_over_realistic": 1.05}


def require_source() -> None:
    """Put ``src/`` on the path, or exit 2 when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    # A results cache or pool size inherited from the caller's shell
    # would change what the workloads measure.
    env.pop("REPRO_RESULTS_CACHE", None)
    env.pop("REPRO_JOBS", None)
    return env


def speed_probe() -> float:
    """CPU seconds this thread spends on a fixed interpreter loop.

    CPU time, not wall time, so that waiting for a CPU does not count:
    the probe measures how fast the host runs Python, not how busy the
    benchmark's own processes keep it.
    """
    table: Dict[int, int] = {}
    start = time.thread_time()
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
    return time.thread_time() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed, given the probes taken
    just before and just after it."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)


def import_probe() -> float:
    """Scaled seconds a fresh interpreter spends importing
    :data:`IMPORTS`."""
    code = "\n".join([
        "import sys, time",
        f"sys.path.insert(0, {str(HERE)!r})",
        "import common",
        "before = common.speed_probe()",
        "t = time.perf_counter()",
        *(f"import {m}" for m in IMPORTS),
        "seconds = time.perf_counter() - t",
        "print(common.scaled(seconds, before, common.speed_probe()))"])
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def rss_mb() -> float:
    """Current resident set size of this process (Linux /proc)."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of process ``pid`` (Linux /proc)."""
    path = f"/proc/{pid}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in {path}")


# -- cell outputs --------------------------------------------------------

def payload(stats) -> dict:
    """The pinned output of one cell, in ``tests/golden`` form."""
    from repro.pipeline.stats import StallCategory

    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": {category.value: stats.cycle_breakdown[category]
                   for category in StallCategory},
        "branch_accuracy": stats.branch_accuracy,
        "counters": {name: int(value)
                     for name, value in sorted(stats.counters.items())},
    }


def digest(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()[:24]


def cell_id(scale: float, overrides: Dict[str, object], workload: str,
            model: str) -> str:
    point = ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
    return f"{scale:g}/{point or 'default'}/{workload}/{model}"


class Checker:
    """Checks every cell against the reference digests and the goldens.

    A cell that mismatches, fails to simulate or violates the audit
    oracle counts once in ``failed``; ``attempted`` counts every cell.
    """

    def __init__(self, reference: Optional[Dict[str, str]] = None):
        if reference is None:
            reference = json.loads(REFERENCE.read_text())["cells"]
        self.reference = reference
        self._goldens: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Digest of every payload checked, by cell id.
        self.digests: Dict[str, str] = {}
        #: Default-config payloads by (scale, workload, model).
        self.default_cells: Dict[Tuple[float, str, str], dict] = {}

    def _golden(self, workload: str) -> dict:
        if workload not in self._goldens:
            path = GOLDEN_DIR / f"{workload}.json"
            self._goldens[workload] = json.loads(path.read_text())
        return self._goldens[workload]

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(what)

    def check(self, scale: float, overrides: Dict[str, object],
              workload: str, model: str, doc: dict) -> bool:
        """Record one cell's payload; True when it is correct."""
        cid = cell_id(scale, overrides, workload, model)
        expected = self.reference.get(cid)
        self.digests[cid] = digest(doc)
        if expected is None:
            self.fail(f"{cid}: no reference digest")
            return False
        if self.digests[cid] != expected:
            self.fail(f"{cid}: stats differ from the reference digest")
            return False
        if scale == 0.1 and not overrides and model in PRIMARY:
            if self._golden(workload).get(model) != doc:
                self.fail(f"{cid}: stats differ from tests/golden")
                return False
        self.attempted += 1
        if not overrides:
            self.default_cells[(scale, workload, model)] = doc
        return True


# -- statistics ----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has
    at least ten samples beyond it; the maximum below 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def paper_error(cells: Dict[Tuple[str, str], dict]) -> Optional[float]:
    """Mean |measured/paper - 1| over the four headline ratios.

    ``cells`` maps (workload, model) to payloads; None unless all five
    primary models ran on all twelve kernels.
    """
    from repro.harness.experiment import geomean

    if any((w, m) not in cells for w in KERNELS for m in PRIMARY):
        return None

    def cyc(w, m):
        return cells[(w, m)]["cycles"]

    measured = {
        "mp_over_inorder": geomean(
            [cyc(w, "inorder") / cyc(w, "multipass") for w in KERNELS]),
        "ooo_over_mp": geomean(
            [cyc(w, "multipass") / cyc(w, "ooo") for w in KERNELS]),
        "runahead_share": (
            sum(1 - cyc(w, "runahead") / cyc(w, "inorder") for w in KERNELS)
            / sum(1 - cyc(w, "multipass") / cyc(w, "inorder")
                  for w in KERNELS)),
        "mp_over_realistic": geomean(
            [cyc(w, "ooo-realistic") / cyc(w, "multipass")
             for w in KERNELS]),
    }
    return sum(abs(measured[k] / PAPER_RATIOS[k] - 1)
               for k in PAPER_RATIOS) / len(PAPER_RATIOS)


def simulated_metrics(cells: Dict[Tuple[str, str], dict]) -> Dict[str, float]:
    """Per-layer simulated metrics over the default-config cells run.

    Deterministic: a change that only speeds up the simulator must leave
    every value identical.  A model the workload did not run reads 0.
    """
    out: Dict[str, float] = {}
    for model in VARIANTS:
        out[f"{MODULE_OF[model]}.{model}.cycles"] = sum(
            doc["cycles"] for (_, m), doc in cells.items() if m == model)
    for model in PRIMARY:
        docs = [doc for (_, m), doc in cells.items() if m == model]
        cycles = sum(doc["cycles"] for doc in docs)
        out[f"memory.{model}.l1d_load_misses"] = sum(
            doc["counters"].get("l1d_load_misses", 0) for doc in docs)
        out[f"branch.{model}.mispredicts"] = sum(
            doc["counters"].get("mispredicts", 0) for doc in docs)
        out[f"pipeline.{model}.load_stall_share"] = (
            sum(doc["stalls"]["load"] for doc in docs) / cycles
            if cycles else 0.0)
    mp = [doc for (_, m), doc in cells.items() if m == "multipass"]
    merges = sum(doc["counters"].get("rally_merges", 0) for doc in mp)
    executions = sum(doc["counters"].get("advance_executions", 0)
                     for doc in mp)
    insts = sum(doc["instructions"] for doc in mp)
    out["multipass.advance_reuse_share"] = (
        merges / executions if executions else 0.0)
    out["multipass.rs_served_share"] = merges / insts if insts else 0.0
    error = paper_error(cells)
    out["bench.paper_error"] = 0.0 if error is None else error
    return out


# -- spans ---------------------------------------------------------------

class Spans:
    """In-memory span recorder: name, start, end, parent and group.

    Spans of one cell or job share a group id.  Nothing is written until
    :meth:`dump`, so recording costs two clock reads and a list append.
    """

    def __init__(self):
        self.records: List[list] = []
        self._stack: List[int] = []
        self.absent: List[str] = []

    @contextmanager
    def span(self, name: str, group: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        if group is None and parent is not None:
            group = self.records[parent][5]
        record = [len(self.records), name, time.perf_counter(), None,
                  parent, group]
        self.records.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            group: Optional[str] = None, parent: Optional[int] = None) -> int:
        """Record a span timed elsewhere (e.g. from a client thread)."""
        self.records.append([len(self.records), name, start, end, parent,
                             group])
        return len(self.records) - 1

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus children."""
        child_time: Dict[int, float] = {}
        for _, _, start, end, parent, _ in self.records:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: Dict[str, float] = {}
        for sid, name, start, end, _, _ in self.records:
            totals[name] = (totals.get(name, 0.0) + end - start
                            - child_time.get(sid, 0.0))
        return totals

    def dump(self, path: Path, meta: dict) -> None:
        origin = min((r[2] for r in self.records), default=0.0)
        doc = dict(meta)
        doc["absent"] = sorted(set(self.absent))
        doc["self_s"] = self.self_times()
        doc["spans"] = [
            {"id": sid, "name": name, "start": start - origin,
             "end": end - origin, "parent": parent, "group": group}
            for sid, name, start, end, parent, group in self.records]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def maybe(spans: Optional[Spans], name: str, group: Optional[str] = None):
    """A span when tracing, else a no-op context."""
    return spans.span(name, group) if spans is not None else nullcontext()
