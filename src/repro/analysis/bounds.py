"""Static critical-path estimator: cycle lower bounds and slack.

Every timing model in the repository replays the same golden trace, and
all of them respect two physical facts:

* **value availability** — a consumer cannot begin computing before each
  producer's value exists, and a producer's value exists no earlier than
  its own start plus its minimum (speculative) latency.  Loads use the
  L1-hit floor of 1 cycle; real latencies from the cache hierarchy can
  only be larger.
* **issue bandwidth** — at most ``width`` trace entries occupy issue
  slots per cycle, and each port class has its own per-cycle cap.

The maximum over both gives a *sound lower bound* on simulated cycles
for every model, from the stall-on-use in-order core to the ideal
out-of-order machine: the dependence height tracks first-computation
times (which multipass advance passes and runahead pre-execution also
obey — they too must read operands that exist), and the width/port
bounds count occupied slots.  ``repro audit`` asserts
``bound <= simulated_cycles`` per model x workload cell; a violation
(``AUD001``) means a timing fast path went sub-physical.

The same forward pass, run together with a backward late-start pass and
an effectuality closure, yields the per-instruction slack /
ineffectuality report of :func:`slack_report` — the static counterpart
of the dynamic stall profiler, and the quantity the paper's advance
pass mines (ready operands, effectual results; PAPER.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.registers import HARDWIRED
from ..isa.trace import Trace
from ..resources import PortModel

_DEFAULT_PORTS = PortModel()


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den) if den > 0 else 0


@dataclass(frozen=True)
class CycleBound:
    """Static lower bound on simulated cycles for one trace.

    ``bound`` is the max of the dependence-height bound and the
    bandwidth bounds; the components are kept separate so reports can
    say *which* resource is binding.
    """

    entries: int            # dynamic trace length (slots occupied)
    dep_height: int         # critical-path bound (value availability)
    width_bound: int        # ceil(entries / issue width)
    mem_bound: int          # executed memory ops / M ports
    int_bound: int          # ALU + memory ops / (I + M) ports
    fp_bound: int           # FP + MULDIV ops / F ports
    br_bound: int           # branches / B ports

    @property
    def bound(self) -> int:
        return max(self.dep_height, self.width_bound, self.mem_bound,
                   self.int_bound, self.fp_bound, self.br_bound)

    @property
    def binding(self) -> str:
        """Name of the component that determines the bound."""
        components = [
            ("dep_height", self.dep_height),
            ("width", self.width_bound),
            ("mem_ports", self.mem_bound),
            ("int_ports", self.int_bound),
            ("fp_ports", self.fp_bound),
            ("br_ports", self.br_bound),
        ]
        return max(components, key=lambda item: item[1])[0]

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "dep_height": self.dep_height,
            "width_bound": self.width_bound,
            "mem_bound": self.mem_bound,
            "int_bound": self.int_bound,
            "fp_bound": self.fp_bound,
            "br_bound": self.br_bound,
            "bound": self.bound,
            "binding": self.binding,
        }


def _dep_start_times(trace: Trace) -> List[int]:
    """Earliest possible start cycle of each trace entry.

    The recurrence of the module docstring: an executed entry starts no
    earlier than every source value exists.  Nullified entries and
    RESTART hints conservatively start at 0 (models may issue them
    without a readiness check), and never publish destinations.
    """
    ready: Dict[int, int] = {}
    starts = [0] * len(trace)
    for i in range(len(trace)):
        if not trace.executed[i] or trace.is_restart[i]:
            continue
        start = 0
        for reg in trace.srcs[i]:
            avail = ready.get(reg, 0)
            if avail > start:
                start = avail
        starts[i] = start
        done = start + trace.latency[i]
        for reg in trace.dests[i]:
            if reg not in HARDWIRED:
                ready[reg] = done
    return starts


def cycle_lower_bound(trace: Trace,
                      ports: Optional[PortModel] = None) -> CycleBound:
    """Compute (and cache on the trace) the static cycle lower bound."""
    if ports is None and getattr(trace, "_cycle_bound", None) is not None:
        return trace._cycle_bound
    ports = ports or _DEFAULT_PORTS

    n = len(trace)
    dep_height = 0
    if n:
        starts = _dep_start_times(trace)
        # Every entry occupies an issue slot in some cycle >= its start,
        # and the simulation runs at least one cycle past that issue.
        dep_height = max(starts) + 1

    n_mem = n_alu = n_fp = n_br = 0
    for i in range(n):
        if not trace.executed[i]:
            continue  # nullified entries occupy only a slot
        if trace.is_load[i] or trace.is_store[i]:
            n_mem += 1
        elif trace.is_branch[i]:
            n_br += 1
        else:
            name = trace.fu[i].name
            if name in ("FP", "MULDIV"):
                n_fp += 1
            elif name == "ALU":
                n_alu += 1

    bound = CycleBound(
        entries=n,
        dep_height=dep_height,
        width_bound=_ceil_div(n, ports.width),
        mem_bound=_ceil_div(n_mem, ports.m_ports),
        int_bound=_ceil_div(n_alu + n_mem,
                            ports.i_ports + ports.m_ports),
        fp_bound=_ceil_div(n_fp, ports.f_ports),
        br_bound=_ceil_div(n_br, ports.b_ports),
    )
    if ports is _DEFAULT_PORTS:
        trace._cycle_bound = bound
    return bound


# ---------------------------------------------------------------------------
# per-instruction slack / ineffectuality
# ---------------------------------------------------------------------------

@dataclass
class SlackRow:
    """Aggregate slack/effectuality for one static instruction."""

    pc: int
    text: str
    count: int = 0              # dynamic occurrences
    executed: int = 0           # non-nullified occurrences
    ineffectual: int = 0        # executed but feeding no effectual sink
    critical: int = 0           # executed occurrences with zero slack
    min_slack: Optional[int] = None
    total_slack: int = 0

    @property
    def avg_slack(self) -> float:
        return self.total_slack / self.executed if self.executed else 0.0

    @property
    def ineffectual_frac(self) -> float:
        return self.ineffectual / self.executed if self.executed else 0.0

    def to_dict(self) -> dict:
        return {
            "pc": self.pc,
            "text": self.text,
            "count": self.count,
            "executed": self.executed,
            "ineffectual": self.ineffectual,
            "critical": self.critical,
            "min_slack": self.min_slack,
            "avg_slack": round(self.avg_slack, 2),
            "ineffectual_frac": round(self.ineffectual_frac, 4),
        }


@dataclass
class SlackReport:
    """Static slack / ineffectuality profile of one trace."""

    bound: CycleBound
    rows: List[SlackRow] = field(default_factory=list)

    @property
    def ineffectual_total(self) -> int:
        return sum(row.ineffectual for row in self.rows)

    @property
    def executed_total(self) -> int:
        return sum(row.executed for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "bound": self.bound.to_dict(),
            "executed": self.executed_total,
            "ineffectual": self.ineffectual_total,
            "rows": [row.to_dict() for row in self.rows],
        }

    def render(self, limit: int = 20) -> str:
        lines = [
            f"dependence-height bound: {self.bound.bound} cycles "
            f"(binding: {self.bound.binding})",
            f"executed entries: {self.executed_total}, ineffectual: "
            f"{self.ineffectual_total}",
            f"{'pc':>5} {'count':>7} {'ineff%':>7} {'min':>5} "
            f"{'avg':>7}  instruction",
        ]
        shown = sorted(self.rows, key=lambda r: (-r.critical, r.pc))
        for row in shown[:limit]:
            min_slack = "-" if row.min_slack is None else row.min_slack
            lines.append(
                f"{row.pc:>5} {row.count:>7} "
                f"{100 * row.ineffectual_frac:>6.1f}% {min_slack:>5} "
                f"{row.avg_slack:>7.1f}  {row.text}")
        if len(shown) > limit:
            lines.append(f"... ({len(shown) - limit} more static "
                         f"instructions)")
        return "\n".join(lines)


def slack_report(trace: Trace,
                 ports: Optional[PortModel] = None) -> SlackReport:
    """Per-static-instruction slack and ineffectuality for one trace.

    *Slack* of a dynamic entry is how many cycles its start could be
    delayed without stretching the dependence-height critical path —
    zero-slack entries are the path the advance pass must not starve.
    An executed entry is *ineffectual* when no chain of dynamic def-use
    edges connects it to an effectual sink (a store, a branch, HALT, or
    the last writer of a final architectural register): its result can
    be dropped without changing the observable outcome (per the
    ineffectuality analysis of PAPERS.md).
    """
    bound = cycle_lower_bound(trace, ports)
    n = len(trace)
    starts = _dep_start_times(trace)

    # Dynamic def-use edges via last-writer tracking.  Nullified entries
    # read only their qualifying predicate; the edge is kept because the
    # nullification decision is an observable effect of that predicate.
    producers: List[Tuple[int, ...]] = [()] * n
    consumers: List[List[int]] = [[] for _ in range(n)]
    last_writer: Dict[int, int] = {}
    for i in range(n):
        feeds = []
        for reg in trace.srcs[i]:
            writer = last_writer.get(reg)
            if writer is not None:
                feeds.append(writer)
                consumers[writer].append(i)
        producers[i] = tuple(feeds)
        if not trace.executed[i]:
            continue
        for reg in trace.dests[i]:
            if reg not in HARDWIRED:
                last_writer[reg] = i
    # Backward closure from effectual sinks.  A nullified entry is a
    # sink: it has no dests, but its predicate chain decided what the
    # machine did, so that chain is never reported droppable.
    effectual = [False] * n
    stack: List[int] = []
    for i in range(n):
        if trace.is_restart[i]:
            continue  # RESTART is a hint, not an observable effect
        if (not trace.executed[i] or trace.is_store[i] or trace.is_branch[i]
                or trace.fu[i].name == "NONE"):
            stack.append(i)
    for reg in trace.final_registers:
        writer = last_writer.get(reg)
        if writer is not None:
            stack.append(writer)
    while stack:
        i = stack.pop()
        if effectual[i]:
            continue
        effectual[i] = True
        for producer in producers[i]:
            if not effectual[producer]:
                stack.append(producer)

    # Backward late-start pass anchored at the critical-path makespan.
    makespan = max(starts) if n else 0
    late = [makespan] * n
    for i in range(n - 1, -1, -1):
        if not trace.executed[i] or trace.is_restart[i]:
            continue
        if consumers[i]:
            latest = min(late[c] for c in consumers[i]) - trace.latency[i]
            late[i] = max(0, latest)

    rows: Dict[int, SlackRow] = {}
    program = trace.program
    for i in range(n):
        pc = trace.pc[i]
        row = rows.get(pc)
        if row is None:
            row = rows[pc] = SlackRow(pc=pc, text=program[pc].render())
        row.count += 1
        if not trace.executed[i] or trace.is_restart[i]:
            continue
        row.executed += 1
        slack = late[i] - starts[i]
        row.total_slack += slack
        if row.min_slack is None or slack < row.min_slack:
            row.min_slack = slack
        if slack == 0:
            row.critical += 1
        produces_value = bool(trace.dests[i]) and not trace.is_store[i]
        if produces_value and not effectual[i]:
            row.ineffectual += 1
    return SlackReport(bound=bound,
                       rows=[rows[pc] for pc in sorted(rows)])
