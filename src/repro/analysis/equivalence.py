"""Differential equivalence checking across simulators.

The correctness contract of the whole reproduction is that every timing
model retires *the same computation*: compilation must preserve the
source program's architectural semantics, and each core — in-order,
multipass, runahead, two-pass, out-of-order — must commit exactly the
golden trace, once, in order.  :func:`check_workload` tests that contract
end to end for one workload:

1. the source program and the compiled program are functionally executed
   and their final architectural states compared (registers, memory, and
   retired-instruction count net of RESTART directives, which are
   architectural no-ops the compiler adds);
2. every requested timing model runs with runtime checking enabled
   (:class:`~repro.analysis.invariants.ArchReplay`), which re-executes its
   commit stream on an independent functional simulator; the replay's
   final state is then compared against the golden trace.

Any divergence is reported minimized: the first few differing registers
or memory words, not a dump of the whole state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Models exercised by default: the paper's main comparison set.
DEFAULT_MODELS: Tuple[str, ...] = ("inorder", "multipass", "runahead",
                                   "ooo", "ooo-realistic")


@dataclass
class StateSnapshot:
    """Final architectural state of one execution."""

    source: str                      # "functional", "compiled", model name
    registers: Dict[int, object]
    memory: Dict[int, object]
    retired: int                     # architectural (non-RESTART) retires


@dataclass
class Divergence:
    """One mismatch between two executions of the same workload."""

    left: str
    right: str
    kind: str                        # "registers" | "memory" | "retired"
    detail: str

    def render(self) -> str:
        return f"{self.left} vs {self.right}: {self.kind} diverge: " \
               f"{self.detail}"


@dataclass
class EquivalenceReport:
    """Outcome of one differential run over a workload."""

    workload: str
    scale: float
    snapshots: List[StateSnapshot] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    invariant_failures: List[str] = field(default_factory=list)
    #: Static cycle lower bound of the compiled trace, and the models
    #: that simulated fewer cycles than it (always a bug when nonempty).
    cycle_bound: int = 0
    bound_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.divergences and not self.invariant_failures
                and not self.bound_violations)

    def render(self) -> str:
        lines = [f"{self.workload} (scale={self.scale}): "
                 f"{'EQUIVALENT' if self.ok else 'DIVERGED'} across "
                 f"{len(self.snapshots)} executions "
                 f"(cycle bound {self.cycle_bound})"]
        for snap in self.snapshots:
            lines.append(f"  {snap.source}: retired={snap.retired}, "
                         f"{len(snap.registers)} regs, "
                         f"{len(snap.memory)} mem words")
        for div in self.divergences:
            lines.append("  DIVERGENCE " + div.render())
        for failure in self.invariant_failures:
            lines.append("  INVARIANT " + failure)
        for violation in self.bound_violations:
            lines.append("  AUDIT " + violation)
        return "\n".join(lines)


def _arch_retired(is_restart) -> int:
    """Dynamic instruction count net of RESTART directives, from a
    trace's ``is_restart`` column (or a prefix of it)."""
    return len(is_restart) - sum(is_restart)


def _minimize(got: Dict, want: Dict, limit: int = 5) -> str:
    from .invariants import _dict_diff
    return _dict_diff(got, want, limit=limit)


def _compare(report: EquivalenceReport, ref: StateSnapshot,
             other: StateSnapshot) -> None:
    if other.registers != ref.registers:
        report.divergences.append(Divergence(
            ref.source, other.source, "registers",
            _minimize(other.registers, ref.registers)))
    if other.memory != ref.memory:
        report.divergences.append(Divergence(
            ref.source, other.source, "memory",
            _minimize(other.memory, ref.memory)))
    if other.retired != ref.retired:
        report.divergences.append(Divergence(
            ref.source, other.source, "retired",
            f"got {other.retired}, want {ref.retired}"))


def check_workload(workload: str,
                   models: Sequence[str] = DEFAULT_MODELS,
                   scale: float = 0.05,
                   config=None,
                   max_instructions: int = 5_000_000) -> EquivalenceReport:
    """Differentially execute one workload across all simulators."""
    # Imported lazily: the analysis package must stay importable without
    # dragging in the whole harness/pipeline stack.
    from ..compiler.passes import CompileOptions, compile_program
    from ..harness.experiment import make_model
    from ..isa.functional import FunctionalSimulator
    from ..machine import MachineConfig
    from ..workloads import build_workload
    from .audit import AuditViolation, check_bound
    from .bounds import cycle_lower_bound
    from .diagnostics import InvariantError
    from .verifier import assert_valid

    report = EquivalenceReport(workload=workload, scale=scale)

    source = build_workload(workload, scale)
    assert_valid(source)
    compiled = compile_program(source, CompileOptions())
    assert_valid(compiled, compiled=True)

    src_trace = FunctionalSimulator(
        source, max_instructions=max_instructions).run()
    ref = StateSnapshot("functional", dict(src_trace.final_registers),
                        dict(src_trace.final_memory),
                        _arch_retired(src_trace.is_restart))
    report.snapshots.append(ref)

    comp_trace = FunctionalSimulator(
        compiled, max_instructions=max_instructions).run()
    comp = StateSnapshot("compiled", dict(comp_trace.final_registers),
                         dict(comp_trace.final_memory),
                         _arch_retired(comp_trace.is_restart))
    report.snapshots.append(comp)
    _compare(report, ref, comp)

    report.cycle_bound = cycle_lower_bound(comp_trace).bound

    config = config or MachineConfig()
    for model in models:
        core = make_model(model, comp_trace, config, check=True)
        try:
            stats = core.run()
        except InvariantError as exc:
            report.invariant_failures.append(f"{model}: {exc}")
            continue
        try:
            check_bound(stats, comp_trace, model, workload)
        except AuditViolation as exc:
            report.bound_violations.append(str(exc))
        replay = core.replay
        snap = StateSnapshot(model, dict(replay.sim.registers),
                             dict(replay.sim.memory),
                             _arch_retired(
                                 comp_trace.is_restart[:replay.retired]))
        report.snapshots.append(snap)
        _compare(report, ref, snap)
    return report


def check_workloads(workloads: Sequence[str],
                    models: Sequence[str] = DEFAULT_MODELS,
                    scale: float = 0.05,
                    config=None) -> List[EquivalenceReport]:
    """Run :func:`check_workload` over several workloads."""
    return [check_workload(w, models=models, scale=scale, config=config)
            for w in workloads]
