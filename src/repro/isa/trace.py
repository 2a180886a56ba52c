"""Dynamic-trace representation consumed by all timing models.

The reproduction is *trace driven*: the functional simulator executes a
program once (the golden run) and records every retired instruction.
Timing models (in-order, multipass, runahead, out-of-order) replay that
stream, which carries everything timing needs — register dependences,
effective memory addresses and values, and branch outcomes.  Replaying
the architected path is the standard trace-driven approximation;
wrong-path effects of advance execution are modelled by the cores
themselves (see :mod:`repro.multipass.core`).

A :class:`Trace` is one set of flat parallel columns indexed by dynamic
sequence number:

* the **dynamic** columns (:data:`DYNAMIC_COLUMNS`), written by the
  executor;
* the **static** columns (:data:`STATIC_COLUMNS`), expanded once per
  trace from per-``(pc, executed)`` tables, so the inner loops of the
  cores are plain list indexing with no per-entry objects or spec
  lookups.

Model- and machine-dependent derived data (dependence graphs, fetch
lines) lives in :mod:`repro.isa.columns`.  :class:`TraceEntry` records
are built from the columns only when an object consumer asks for
:attr:`Trace.entries`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .instruction import Instruction
from .opcodes import FUClass, Opcode
from .program import Program

#: The columns the functional executor writes, in this order.
DYNAMIC_COLUMNS = ("inst", "srcs", "dests", "addr", "value", "taken",
                   "executed")

#: Per-seq columns derived from the instruction and its ``executed`` flag.
STATIC_COLUMNS = ("fu", "issue_fu", "latency", "pc", "stop", "is_load",
                  "is_store", "is_branch", "is_restart", "mem_exec",
                  "is_predicated", "static_dests", "port_code",
                  "queue_code", "multipass_kind")

#: Small-int port class per FUClass for cores that inline the port
#: tracker into their hot loops: 0 = MEM, 1 = ALU (I port with M
#: fallback), 2 = FP/MULDIV, 3 = BR, 4 = slot-only (``FUClass.NONE``).
#: Mirrors :meth:`repro.resources.PortTracker.issue` dispatch.
PORT_CODE = {
    FUClass.MEM: 0,
    FUClass.ALU: 1,
    FUClass.FP: 2,
    FUClass.MULDIV: 2,
    FUClass.BR: 3,
    FUClass.NONE: 4,
}

#: Decentralized-issue-queue class per FU (realistic OOO model):
#: 0 = memory queue, 1 = integer queue (ALU/BR/slot-only), 2 = FP queue.
QUEUE_CODE = {
    FUClass.MEM: 0,
    FUClass.ALU: 1,
    FUClass.BR: 1,
    FUClass.NONE: 1,
    FUClass.FP: 2,
    FUClass.MULDIV: 2,
}


class TraceEntry:
    """One dynamically retired instruction, as a record.

    Attributes:
        inst: the static instruction.
        seq: dynamic sequence number (position in the trace).
        dests: registers actually written (empty when predicated off).
        srcs: registers actually read, including the qualifying predicate.
        addr: effective byte address for executed memory operations.
        value: value loaded (loads) or stored (stores).
        taken: branch outcome (branches only).
        executed: False when the qualifying predicate nullified the
            instruction; nullified instructions occupy issue slots but have
            no dataflow effects beyond reading their predicate.
    """

    __slots__ = ("inst", "seq", "dests", "srcs", "addr", "value", "taken",
                 "executed")

    def __init__(self, inst: Instruction, seq: int,
                 dests: Tuple[int, ...], srcs: Tuple[int, ...],
                 addr: Optional[int] = None, value: object = None,
                 taken: bool = False, executed: bool = True):
        self.inst = inst
        self.seq = seq
        self.dests = dests
        self.srcs = srcs
        self.addr = addr
        self.value = value
        self.taken = taken
        self.executed = executed

    @property
    def is_load(self) -> bool:
        return self.executed and self.inst.spec.is_load

    @property
    def is_store(self) -> bool:
        return self.executed and self.inst.spec.is_store

    @property
    def is_branch(self) -> bool:
        return self.inst.spec.is_branch

    @property
    def is_restart(self) -> bool:
        return self.inst.opcode is Opcode.RESTART

    @property
    def latency(self) -> int:
        """Fixed execution latency; loads get theirs from the caches."""
        return self.inst.spec.latency

    @property
    def fu(self) -> FUClass:
        return self.inst.spec.fu

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "" if self.executed else " [nullified]"
        return f"<#{self.seq} {self.inst.render()}{tag}>"


def _static_row(inst: Instruction, executed: bool) -> tuple:
    """The :data:`STATIC_COLUMNS` values of one ``(pc, executed)`` pair.

    ``is_load``/``is_store``/``mem_exec``/``issue_fu`` and the codes
    derived from it follow nullification (a nullified slot occupies no
    functional unit); ``is_branch`` does not.  ``multipass_kind`` is
    the advance-dispatch class: 0 executed ALU/FP/other, 1 nullified,
    2 executed branch, 3 executed store, 4 executed load.
    """
    spec = inst.spec
    issue_fu = spec.fu if executed else FUClass.NONE
    is_load = executed and spec.is_load
    is_store = executed and spec.is_store
    if not executed:
        kind = 1
    elif spec.is_branch:
        kind = 2
    elif is_store:
        kind = 3
    elif is_load:
        kind = 4
    else:
        kind = 0
    return (spec.fu, issue_fu, spec.latency, inst.index, inst.stop,
            is_load, is_store, spec.is_branch, inst.opcode is Opcode.RESTART,
            is_load or is_store, inst.is_predicated, inst.dests,
            PORT_CODE[issue_fu], QUEUE_CODE[issue_fu], kind)


class Trace:
    """A complete golden-run trace as per-seq columns, plus final state.

    Every column is a list of length ``len(trace)``, shared read-only by
    all cores replaying the trace.  ``derived`` memoizes the functions
    of :mod:`repro.isa.columns`.
    """

    def __init__(self, program: Program, columns: Sequence[list],
                 final_registers: Dict[int, object],
                 final_memory: Dict[int, object],
                 truncated: bool = False,
                 keys: Optional[List[int]] = None):
        """``columns`` holds the :data:`DYNAMIC_COLUMNS`, in that order.

        ``keys`` is the per-seq row key ``pc * 2 + executed`` when the
        caller already has it (the executor does); otherwise it is
        computed from the ``inst`` and ``executed`` columns.
        """
        self.program = program
        (self.inst, self.srcs, self.dests, self.addr, self.value,
         self.taken, self.executed) = columns
        self.final_registers = final_registers
        self.final_memory = final_memory
        self.truncated = truncated
        self.derived: Dict[tuple, object] = {}
        self._entries: Optional[List[TraceEntry]] = None
        # One table row per (pc, executed); each seq indexes its row.
        table = [_static_row(inst, executed)
                 for inst in program.instructions
                 for executed in (False, True)]
        if keys is None:
            keys = [inst.index * 2 + executed
                    for inst, executed in zip(self.inst, self.executed)]
        (self.fu, self.issue_fu, self.latency, self.pc, self.stop,
         self.is_load, self.is_store, self.is_branch, self.is_restart,
         self.mem_exec, self.is_predicated, self.static_dests,
         self.port_code, self.queue_code, self.multipass_kind) = [
            [column[key] for key in keys] for column in zip(*table)]

    @property
    def entries(self) -> List[TraceEntry]:
        """:class:`TraceEntry` records over the columns, built on first use.

        For object consumers only (runtime invariant replay, tests);
        the simulation paths index the columns directly.
        """
        if self._entries is None:
            self._entries = list(map(
                TraceEntry, self.inst, range(len(self.inst)), self.dests,
                self.srcs, self.addr, self.value, self.taken, self.executed))
        return self._entries

    def __len__(self) -> int:
        return len(self.inst)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx: int) -> TraceEntry:
        return self.entries[idx]

    def dynamic_counts(self) -> Dict[str, int]:
        """Summary counts by instruction kind (for workload inspection)."""
        return {"total": len(self), "loads": sum(self.is_load),
                "stores": sum(self.is_store),
                "branches": sum(self.is_branch),
                "fp": self.fu.count(FUClass.FP),
                "muldiv": self.fu.count(FUClass.MULDIV),
                "nullified": self.executed.count(False),
                "restarts": sum(self.is_restart)}
