"""Stall-attribution profiler: where do the cycles actually go?

Figure 6 answers that question in aggregate; this module answers it
per static instruction.  :class:`StallProfileSink` folds the run's
stall spans into ``(category, pc)`` cycle totals when the run finishes
(no event storage), and :func:`render_profile` prints a flamegraph-style
text tree — workload → stall category → hottest static sites — with
the cross-model comparison the paper's story rests on: the in-order
baseline spends the plurality of its cycles stalled on loads, and
multipass converts much of that share into overlap.

Attribution matches the stats taxonomy exactly: every non-execution
cycle a core charges is attributed to the static instruction the core
blamed (for multipass advance-mode cycles, the *triggering* load), so
per-category profile totals reconcile with ``SimStats.cycle_breakdown``
to the cycle — a property the telemetry tests pin.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.trace import Trace
from ..machine import MachineConfig
from ..pipeline.stats import SimStats, StallCategory
from .events import Tracer
from .record import FoldingSink, RunRecord


class StallProfileSink(FoldingSink):
    """Aggregate stall spans into per-(category, pc) cycle totals."""

    def __init__(self):
        super().__init__()
        #: (StallCategory, pc) -> stalled cycles.
        self.cells: Dict[Tuple[StallCategory, int], int] = {}
        self.restarts = 0
        self.cache_misses: Dict[str, int] = {}

    def fold(self, record: RunRecord) -> None:
        cells = self.cells
        for category, pc, _start, cycles in record.spans:
            key = (category, pc)
            cells[key] = cells.get(key, 0) + cycles
        self.restarts += record.restarts
        misses = self.cache_misses
        for level, n in record.misses.items():
            misses[level] = misses.get(level, 0) + n

    def category_totals(self) -> Dict[StallCategory, int]:
        totals: Dict[StallCategory, int] = {}
        for (category, _pc), cycles in self.cells.items():
            totals[category] = totals.get(category, 0) + cycles
        return totals

    def hottest(self, category: StallCategory, top: int = 10
                ) -> List[Tuple[int, int]]:
        """Top ``(pc, cycles)`` sites for one category, hottest first."""
        sites = [(pc, cycles) for (cat, pc), cycles
                 in self.cells.items() if cat is category]
        sites.sort(key=lambda item: (-item[1], item[0]))
        return sites[:top]


def profile_model(model: str, trace: Trace,
                  config: Optional[MachineConfig] = None
                  ) -> Tuple[SimStats, StallProfileSink]:
    """Run ``model`` over ``trace`` with stall profiling attached."""
    from ..harness.experiment import run_model

    sink = StallProfileSink()
    stats = run_model(model, trace, config, tracer=Tracer(sink))
    return stats, sink


def _render_site(pc: int, cycles: int, category_total: int,
                 trace: Trace, connector: str) -> str:
    if 0 <= pc < len(trace.program.instructions):
        asm = trace.program.instructions[pc].render()
    else:
        asm = "(unattributed)"
    if len(asm) > 34:
        asm = asm[:31] + "..."
    share = cycles / category_total if category_total else 0.0
    return (f"    {connector} pc {pc:>4}  {asm:<34} "
            f"{cycles:>9} cycles  {share:6.1%}")


def render_profile(results: Sequence[Tuple[SimStats, StallProfileSink]],
                   trace: Trace, top: int = 10) -> str:
    """Flamegraph-style text tree: workload → category → static site."""
    workload = trace.program.name
    lines = [f"stall attribution — {workload} "
             f"({len(trace)} dynamic instructions), "
             f"top {top} site(s) per category", ""]
    for stats, sink in results:
        total = stats.cycles or 1
        lines.append(
            f"{stats.model}: {stats.cycles} cycles, IPC {stats.ipc:.2f}, "
            f"{stats.stall_cycles} stalled "
            f"({stats.stall_cycles / total:.1%})")
        totals = sink.category_totals()
        ordered = sorted(
            (c for c in StallCategory if c is not StallCategory.EXECUTION),
            key=lambda c: -totals.get(c, 0))
        for category in ordered:
            category_total = totals.get(category, 0)
            if not category_total:
                continue
            lines.append(f"  {category.value:<10} "
                         f"{category_total:>9} cycles  "
                         f"{category_total / total:6.1%} of all cycles")
            sites = sink.hottest(category, top)
            for i, (pc, cycles) in enumerate(sites):
                connector = "└─" if i == len(sites) - 1 else "├─"
                lines.append(_render_site(pc, cycles, category_total,
                                          trace, connector))
        if sink.restarts:
            lines.append(f"  advance restarts: {sink.restarts}")
        if sink.cache_misses:
            misses = ", ".join(f"{level} {count}" for level, count
                               in sorted(sink.cache_misses.items()))
            lines.append(f"  L1-missing accesses by serving level: "
                         f"{misses}")
        lines.append("")

    if len(results) > 1:
        lines.append("load-stall share of all cycles:")
        baseline_share = None
        for stats, _sink in results:
            share = (stats.load_stall_cycles / stats.cycles
                     if stats.cycles else 0.0)
            delta = ""
            if baseline_share is None:
                baseline_share = share
            else:
                delta = (f"  ({share - baseline_share:+.1%} vs "
                         f"{results[0][0].model})")
            lines.append(f"  {stats.model:>20}: {share:6.1%}{delta}")
    return "\n".join(lines).rstrip() + "\n"


__all__ = ["StallProfileSink", "profile_model", "render_profile"]
