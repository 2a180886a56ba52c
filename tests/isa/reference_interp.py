"""Reference interpreter for the functional executor (test-only).

``repro.isa.functional`` compiles each static instruction into a step
closure, and both its ``run()`` and ``step()`` drive those closures, so
comparing the two no longer checks the semantics independently.  This
module keeps the executor's earlier interpretive semantics verbatim — a
``_step`` if/elif chain over ``read_reg``/``write_reg`` with a dict
register file — as the oracle that ``test_reference_executor.py``
compares the compiled executor against.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.functional import ExecutionLimitExceeded
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program, check_alignment
from repro.isa.registers import TRUE_PRED, ZERO_REG, is_pred_reg
from repro.isa.trace import DYNAMIC_COLUMNS, Trace, TraceEntry

#: The dynamic fields of a HALT: it reads and writes nothing.
_HALT_FIELDS = ((), (), None, None, False, True)

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x80000000


def to_int32(value: int) -> int:
    """Wrap an int to 32-bit two's-complement (ILP32 data model)."""
    value &= _MASK32
    return value - (1 << 32) if value & _SIGN32 else value


class ReferenceInterpreter:
    """The interpretive executor: one ``_step`` dispatch per instruction."""

    def __init__(self, program: Program, max_instructions: int = 2_000_000):
        self.program = program
        self.max_instructions = max_instructions
        self.registers: Dict[int, object] = {}
        self.memory: Dict[int, object] = dict(program.memory_image)
        self.pc = 0

    # -- register/memory accessors ------------------------------------------

    def read_reg(self, reg: int) -> object:
        if reg == ZERO_REG:
            return 0
        if reg == TRUE_PRED:
            return True
        if is_pred_reg(reg):
            return self.registers.get(reg, False)
        return self.registers.get(reg, 0)

    def write_reg(self, reg: int, value: object) -> None:
        if reg in (ZERO_REG, TRUE_PRED):
            return
        self.registers[reg] = value

    def read_mem(self, addr: int) -> object:
        check_alignment(addr, self.program.name)
        return self.memory.get(addr, 0)

    def write_mem(self, addr: int, value: object) -> None:
        check_alignment(addr, self.program.name)
        self.memory[addr] = value

    # -- execution -------------------------------------------------------------

    def run(self, truncate_ok: bool = False) -> Trace:
        """Execute until HALT (or the instruction limit) and return the trace.

        Each retired instruction's fields are appended straight into the
        trace's dynamic columns.

        Args:
            truncate_ok: when True, hitting ``max_instructions`` yields a
                truncated trace instead of raising.  Workload generators use
                this deliberately for open-ended kernels.
        """
        columns = tuple([] for _ in DYNAMIC_COLUMNS)
        insts = columns[0]
        (add_inst, add_srcs, add_dests, add_addr, add_value, add_taken,
         add_executed) = [column.append for column in columns]
        program = self.program
        n_static = len(program)
        truncated = False
        while True:
            if self.pc >= n_static:
                raise ExecutionLimitExceeded(
                    f"{program.name}: fell off the end of the program at "
                    f"pc={self.pc}"
                )
            if len(insts) >= self.max_instructions:
                if truncate_ok:
                    truncated = True
                    break
                raise ExecutionLimitExceeded(
                    f"{program.name}: exceeded {self.max_instructions} "
                    f"dynamic instructions"
                )
            inst = program[self.pc]
            halt = inst.opcode is Opcode.HALT
            srcs, dests, addr, value, taken, executed = (
                _HALT_FIELDS if halt else self._step(inst))
            add_inst(inst)
            add_srcs(srcs)
            add_dests(dests)
            add_addr(addr)
            add_value(value)
            add_taken(taken)
            add_executed(executed)
            if halt:
                break
        return Trace(program, columns, dict(self.registers),
                     dict(self.memory), truncated=truncated)

    def step(self, seq: int) -> TraceEntry:
        """Execute the instruction at the current pc and return its entry.

        Single-step interface used by the runtime invariant checker
        (:class:`repro.analysis.invariants.ArchReplay`) to re-execute the
        committed instruction stream independently of the golden trace.
        ``HALT`` yields its trace entry without advancing the pc.
        """
        inst = self.program[self.pc]
        srcs, dests, addr, value, taken, executed = (
            _HALT_FIELDS if inst.opcode is Opcode.HALT else self._step(inst))
        return TraceEntry(inst, seq, dests, srcs, addr, value, taken,
                          executed)

    def _step(self, inst: Instruction) -> tuple:
        """Execute one instruction and advance the pc.

        Returns the dynamic fields ``(srcs, dests, addr, value, taken,
        executed)``.
        """
        op = inst.opcode
        pred_true = bool(self.read_reg(inst.pred))
        if not pred_true:
            # Nullified: reads only its predicate, writes nothing, falls
            # through (a nullified branch is not taken).
            self.pc += 1
            srcs = (inst.pred,) if inst.is_predicated else ()
            return srcs, (), None, None, False, False

        dests = inst.dests
        next_pc = self.pc + 1
        addr: Optional[int] = None
        value: object = None
        taken = False

        if op in _ALU_BINOPS:
            a = self.read_reg(inst.srcs[0])
            b = self.read_reg(inst.srcs[1])
            self.write_reg(dests[0], _ALU_BINOPS[op](a, b))
        elif op in _ALU_IMMOPS:
            a = self.read_reg(inst.srcs[0])
            self.write_reg(dests[0], _ALU_IMMOPS[op](a, inst.imm))
        elif op is Opcode.MOV:
            self.write_reg(dests[0], self.read_reg(inst.srcs[0]))
        elif op is Opcode.MOVI:
            self.write_reg(dests[0], to_int32(inst.imm))
        elif op is Opcode.FMOV:
            self.write_reg(dests[0], self.read_reg(inst.srcs[0]))
        elif op is Opcode.FMOVI:
            self.write_reg(dests[0], float(inst.imm))
        elif op is Opcode.CVTIF:
            self.write_reg(dests[0], float(self.read_reg(inst.srcs[0])))
        elif op is Opcode.CVTFI:
            self.write_reg(dests[0], to_int32(int(self.read_reg(inst.srcs[0]))))
        elif op in (Opcode.LD, Opcode.FLD):
            addr = to_int32(self.read_reg(inst.srcs[0]) + inst.imm) & _MASK32
            value = self.read_mem(addr)
            self.write_reg(dests[0], value)
        elif op in (Opcode.ST, Opcode.FST):
            addr = to_int32(self.read_reg(inst.srcs[1]) + inst.imm) & _MASK32
            value = self.read_reg(inst.srcs[0])
            self.write_mem(addr, value)
        elif op is Opcode.BR:
            taken = True
            next_pc = self.program.target_index(inst)
        elif op is Opcode.JMP:
            taken = True
            next_pc = self.program.target_index(inst)
        elif op in (Opcode.NOP, Opcode.RESTART):
            pass
        else:  # pragma: no cover - opcode table is exhaustive
            raise NotImplementedError(f"unhandled opcode {op}")

        self.pc = next_pc
        return inst.read_regs(), dests, addr, value, taken, True


def _shift_amount(b: int) -> int:
    return b & 31


_ALU_BINOPS = {
    Opcode.ADD: lambda a, b: to_int32(a + b),
    Opcode.SUB: lambda a, b: to_int32(a - b),
    Opcode.AND: lambda a, b: to_int32(a & b),
    Opcode.OR: lambda a, b: to_int32(a | b),
    Opcode.XOR: lambda a, b: to_int32(a ^ b),
    Opcode.SHL: lambda a, b: to_int32(a << _shift_amount(b)),
    Opcode.SHR: lambda a, b: to_int32((a & _MASK32) >> _shift_amount(b)),
    Opcode.CMPEQ: lambda a, b: a == b,
    Opcode.CMPNE: lambda a, b: a != b,
    Opcode.CMPLT: lambda a, b: a < b,
    Opcode.CMPLE: lambda a, b: a <= b,
    Opcode.MUL: lambda a, b: to_int32(a * b),
    Opcode.DIV: lambda a, b: to_int32(_int_div(a, b)),
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b if b else 0.0,
    Opcode.FCMPLT: lambda a, b: a < b,
    Opcode.FCMPLE: lambda a, b: a <= b,
}

_ALU_IMMOPS = {
    Opcode.ADDI: lambda a, i: to_int32(a + i),
    Opcode.SUBI: lambda a, i: to_int32(a - i),
    Opcode.ANDI: lambda a, i: to_int32(a & i),
    Opcode.XORI: lambda a, i: to_int32(a ^ i),
    Opcode.SHLI: lambda a, i: to_int32(a << _shift_amount(i)),
    Opcode.SHRI: lambda a, i: to_int32((a & _MASK32) >> _shift_amount(i)),
    Opcode.CMPEQI: lambda a, i: a == i,
    Opcode.CMPNEI: lambda a, i: a != i,
    Opcode.CMPLTI: lambda a, i: a < i,
    Opcode.CMPLEI: lambda a, i: a <= i,
}


def _int_div(a: int, b: int) -> int:
    """C-style truncating division; divide-by-zero yields zero."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q
