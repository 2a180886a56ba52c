"""Golden functional simulator.

Executes a :class:`~repro.isa.program.Program` to completion under ILP32
semantics (32-bit two's-complement integers, Table 2 of the paper) and
records the columnar :class:`~repro.isa.trace.Trace` that all timing models
replay.  This is also the reference against which multipass result
preservation is verified: every value the multipass core merges from its
result store must equal the value recorded here.

Execution is compiled.  Building a :class:`FunctionalSimulator` turns
each static instruction into one step closure with its operand and
destination slots bound, over a flat register file that also holds the
immediates.  A step
returns its instruction's row key ``pc * 2 + executed``.  Everything a
trace records about a dynamic instruction except a memory operation's
address and value — its sources, destinations, branch outcome and next
pc — is a function of that key, so the run loop records one key per
instruction and the columns are expanded from per-key tables.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, and_, eq, le, lt, mul, ne, or_, sub, xor
from typing import Callable, Dict, Iterable, List

from .instruction import Instruction
from .opcodes import Opcode
from .program import Program, check_alignment
from .registers import HARDWIRED, NUM_REGS, PRED_BASE, TRUE_PRED
from .trace import Trace, TraceEntry

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x80000000
_WRAP32 = 1 << 32

#: Register-file slot that absorbs writes to the hard-wired registers;
#: the immediates' constant slots follow it.
_SINK = NUM_REGS


def to_int32(value: int) -> int:
    """Wrap an int to 32-bit two's-complement (ILP32 data model)."""
    value &= _MASK32
    return value - _WRAP32 if value & _SIGN32 else value


class ExecutionLimitExceeded(Exception):
    """The program ran past ``max_instructions`` without halting."""


class _Halted(Exception):
    """Raised by a HALT's step: HALT ends the run without advancing."""


def _halt() -> int:
    raise _Halted


class FunctionalSimulator:
    """Executes programs and emits golden traces.

    ``registers`` is every register written so far, in first-write
    order; ``memory`` is the data memory, word address -> value.
    """

    def __init__(self, program: Program, max_instructions: int = 2_000_000):
        self.program = program
        self.max_instructions = max_instructions
        self.memory: Dict[int, object] = dict(program.memory_image)
        self.pc = 0
        # Reads of never-written registers see 0 (predicates: False);
        # r0 and p0 keep their hard-wired values because their writes
        # go to the sink slot.
        regs: List[object] = [0] * (NUM_REGS + 1)
        regs[PRED_BASE:NUM_REGS] = [False] * (NUM_REGS - PRED_BASE)
        regs[TRUE_PRED] = True
        self._regs = regs
        self._written: Dict[int, None] = {}
        # Addresses and values of executed memory operations, in order;
        # drained into the trace (run) or the entry (step).
        self._addrs: List[int] = []
        self._values: List[object] = []
        rows = []
        for inst in program.instructions:
            rows.extend(_key_rows(program, inst))
        (self._inst_of, self._srcs_of, self._dests_of, self._taken_of,
         self._executed_of, self._next_pc, self._writes,
         self._is_mem) = [list(col) for col in zip(*rows)] or [[]] * 8
        n_static = len(program)

        def fell_off() -> int:
            raise ExecutionLimitExceeded(
                f"{program.name}: fell off the end of the program at "
                f"pc={n_static}")

        self._steps: List[Callable[[], int]] = [
            _compile(self, inst) for inst in program.instructions]
        self._steps.append(fell_off)

    @property
    def registers(self) -> Dict[int, object]:
        regs = self._regs
        return {reg: regs[reg] for reg in self._written}

    def _note_writes(self, keys: Iterable[int]) -> None:
        """Record first writes; ``keys`` in first-occurrence order."""
        writes = self._writes
        written = self._written
        for key in keys:
            reg = writes[key]
            if reg is not None:
                written.setdefault(reg)

    # -- execution -------------------------------------------------------------

    def run(self, truncate_ok: bool = False) -> Trace:
        """Execute until HALT (or the instruction limit) and return the trace.

        Args:
            truncate_ok: when True, hitting ``max_instructions`` yields a
                truncated trace instead of raising.  Workload generators use
                this deliberately for open-ended kernels.
        """
        steps = self._steps
        next_pc = self._next_pc
        keys: List[int] = []
        add_key = keys.append
        pc = self.pc
        halted = False
        try:
            for _ in repeat(None, self.max_instructions):
                key = steps[pc]()
                add_key(key)
                pc = next_pc[key]
        except _Halted:
            add_key(pc * 2 + 1)
            halted = True
        finally:
            self.pc = pc
        truncated = False
        if not halted:
            if pc == len(self.program):
                steps[pc]()  # raises: fell off the end
            if not truncate_ok:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded "
                    f"{self.max_instructions} dynamic instructions")
            truncated = True
        self._note_writes(dict.fromkeys(keys))
        return Trace(self.program, self._columns(keys), self.registers,
                     dict(self.memory), truncated=truncated, keys=keys)

    def _columns(self, keys: List[int]) -> List[list]:
        """The :data:`~repro.isa.trace.DYNAMIC_COLUMNS` of a key column."""
        def expand(table: list) -> list:
            return [table[key] for key in keys]

        def drain(log: List[object]) -> list:
            # Each memory-op key takes the log's next entry, every other
            # key a None.
            entries, none = iter(log), repeat(None)
            sources = [entries if mem else none for mem in self._is_mem]
            column = [next(sources[key]) for key in keys]
            log.clear()
            return column

        return [expand(self._inst_of), expand(self._srcs_of),
                expand(self._dests_of), drain(self._addrs),
                drain(self._values), expand(self._taken_of),
                expand(self._executed_of)]

    def step(self, seq: int) -> TraceEntry:
        """Execute the instruction at the current pc and return its entry.

        Single-step interface used by the runtime invariant checker
        (:class:`repro.analysis.invariants.ArchReplay`) to re-execute the
        committed instruction stream independently of the golden trace.
        ``HALT`` yields its trace entry without advancing the pc.
        """
        pc = self.pc
        inst = self.program[pc]
        try:
            key = self._steps[pc]()
        except _Halted:
            key = pc * 2 + 1
        else:
            self.pc = self._next_pc[key]
        self._note_writes((key,))
        addr = value = None
        if self._is_mem[key]:
            addr = self._addrs.pop()
            value = self._values.pop()
        return TraceEntry(inst, seq, self._dests_of[key], self._srcs_of[key],
                          addr, value, self._taken_of[key],
                          self._executed_of[key])


def _key_rows(program: Program, inst: Instruction) -> tuple:
    """Rows of key ``pc * 2`` (nullified) and ``pc * 2 + 1`` (executed).

    Each row is ``(inst, srcs, dests, taken, executed, next_pc,
    written register or None, is memory op)``.  A nullified instruction
    reads only its predicate, writes nothing and falls through (a
    nullified branch is not taken); HALT reads and writes nothing.
    """
    op = inst.opcode
    pc = inst.index
    nullified = (inst, (inst.pred,) if inst.is_predicated else (), (),
                 False, False, pc + 1, None, False)
    if op is Opcode.HALT:
        return nullified, (inst, (), (), False, True, pc, None, False)
    taken = op in _BRANCHES
    writes = None
    if op not in _NO_WRITE and inst.dests[0] not in HARDWIRED:
        writes = inst.dests[0]
    return nullified, (inst, inst.read_regs(), inst.dests, taken, True,
                       program.target_index(inst) if taken else pc + 1,
                       writes, op in _MEMORY)


def _compile(sim: FunctionalSimulator, inst: Instruction) -> Callable[[], int]:
    """The step closure of one static instruction.

    It executes the instruction on ``sim``'s register file and memory
    and returns the row key ``pc * 2 + executed``.
    """
    op = inst.opcode
    if op is Opcode.HALT:
        return _halt  # HALT is never nullified
    key = inst.index * 2 + 1
    body = _FACTORIES[op](sim, inst, key)
    if not inst.is_predicated:
        return body
    regs = sim._regs
    pred = inst.pred
    nullified = key - 1

    def guarded() -> int:
        return body() if regs[pred] else nullified

    return guarded


def _dest(inst: Instruction) -> int:
    dest = inst.dests[0]
    return _SINK if dest in HARDWIRED else dest


def _operands(sim: FunctionalSimulator, inst: Instruction) -> tuple:
    """Register-file slots of an ALU instruction's operands.

    An immediate gets a slot of its own past the architectural
    registers and the sink, written once here and never again, so
    ``addi`` runs the ``add`` step over it.
    """
    if not inst.spec.has_imm:
        return inst.srcs
    sim._regs.append(inst.imm)
    return inst.srcs + (len(sim._regs) - 1,)


# -- step factories: ``factory(sim, inst, key) -> step`` ----------------------

def _int_binop(fn):
    """``d = int32(fn(a, b))``."""
    def factory(sim, inst, key):
        regs = sim._regs
        d = _dest(inst)
        a, b = _operands(sim, inst)

        def step():
            v = fn(regs[a], regs[b]) & _MASK32
            regs[d] = v - _WRAP32 if v & _SIGN32 else v
            return key
        return step
    return factory


def _binop(fn):
    """``d = fn(a, b)``."""
    def factory(sim, inst, key):
        regs = sim._regs
        d = _dest(inst)
        a, b = _operands(sim, inst)

        def step():
            regs[d] = fn(regs[a], regs[b])
            return key
        return step
    return factory


def _unary(fn):
    """``d = fn(a)``."""
    def factory(sim, inst, key):
        regs = sim._regs
        d = _dest(inst)
        a, = _operands(sim, inst)

        def step():
            regs[d] = fn(regs[a])
            return key
        return step
    return factory


def _move(sim, inst, key):
    """``d = a``."""
    regs = sim._regs
    d = _dest(inst)
    a = inst.srcs[0]

    def step():
        regs[d] = regs[a]
        return key
    return step


def _load(sim, inst, key):
    """``d = mem[int32(base + imm)]``, logging address and value."""
    regs = sim._regs
    get = sim.memory.get
    log_addr = sim._addrs.append
    log_value = sim._values.append
    d = _dest(inst)
    base = inst.srcs[0]
    imm = inst.imm
    name = sim.program.name

    def step():
        addr = (regs[base] + imm) & _MASK32
        if addr & 3:
            check_alignment(addr, name)
        value = get(addr, 0)
        regs[d] = value
        log_addr(addr)
        log_value(value)
        return key
    return step


def _store(sim, inst, key):
    """``mem[int32(base + imm)] = data``, logging address and value."""
    regs = sim._regs
    memory = sim.memory
    log_addr = sim._addrs.append
    log_value = sim._values.append
    data, base = inst.srcs[0], inst.srcs[1]
    imm = inst.imm
    name = sim.program.name

    def step():
        addr = (regs[base] + imm) & _MASK32
        value = regs[data]
        if addr & 3:
            check_alignment(addr, name)
        memory[addr] = value
        log_addr(addr)
        log_value(value)
        return key
    return step


def _no_effect(sim, inst, key):
    """Branches (the next pc is in the key's row), NOP and RESTART."""
    return lambda: key


def _shl(a, b):
    return a << (b & 31)


def _shr(a, b):
    return (a & _MASK32) >> (b & 31)


def _int_div(a: int, b: int) -> int:
    """C-style truncating division; divide-by-zero yields zero."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _fdiv(a, b):
    return a / b if b else 0.0


_FACTORIES = {
    Opcode.ADD: _int_binop(add),
    Opcode.SUB: _int_binop(sub),
    Opcode.AND: _int_binop(and_),
    Opcode.OR: _int_binop(or_),
    Opcode.XOR: _int_binop(xor),
    Opcode.SHL: _int_binop(_shl),
    Opcode.SHR: _int_binop(_shr),
    Opcode.MUL: _int_binop(mul),
    Opcode.DIV: _int_binop(_int_div),
    Opcode.ADDI: _int_binop(add),
    Opcode.SUBI: _int_binop(sub),
    Opcode.ANDI: _int_binop(and_),
    Opcode.XORI: _int_binop(xor),
    Opcode.SHLI: _int_binop(_shl),
    Opcode.SHRI: _int_binop(_shr),
    Opcode.CMPEQ: _binop(eq),
    Opcode.CMPNE: _binop(ne),
    Opcode.CMPLT: _binop(lt),
    Opcode.CMPLE: _binop(le),
    Opcode.CMPEQI: _binop(eq),
    Opcode.CMPNEI: _binop(ne),
    Opcode.CMPLTI: _binop(lt),
    Opcode.CMPLEI: _binop(le),
    Opcode.FADD: _binop(add),
    Opcode.FSUB: _binop(sub),
    Opcode.FMUL: _binop(mul),
    Opcode.FDIV: _binop(_fdiv),
    Opcode.FCMPLT: _binop(lt),
    Opcode.FCMPLE: _binop(le),
    Opcode.MOV: _move,
    Opcode.FMOV: _move,
    Opcode.MOVI: _unary(to_int32),
    Opcode.FMOVI: _unary(float),
    Opcode.CVTIF: _unary(float),
    Opcode.CVTFI: _unary(lambda x: to_int32(int(x))),
    Opcode.LD: _load,
    Opcode.FLD: _load,
    Opcode.ST: _store,
    Opcode.FST: _store,
    Opcode.BR: _no_effect,
    Opcode.JMP: _no_effect,
    Opcode.NOP: _no_effect,
    Opcode.RESTART: _no_effect,
}

_BRANCHES = frozenset((Opcode.BR, Opcode.JMP))
_MEMORY = frozenset((Opcode.LD, Opcode.FLD, Opcode.ST, Opcode.FST))
_NO_WRITE = frozenset((Opcode.ST, Opcode.FST, Opcode.BR, Opcode.JMP,
                       Opcode.NOP, Opcode.RESTART))


def execute(program: Program, max_instructions: int = 2_000_000,
            truncate_ok: bool = False) -> Trace:
    """Convenience wrapper: run ``program`` and return its golden trace."""
    sim = FunctionalSimulator(program, max_instructions=max_instructions)
    return sim.run(truncate_ok=truncate_ok)
