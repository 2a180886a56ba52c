"""Target ISA: registers, opcodes, programs, assembler and golden execution.

The instruction set is a predicated, EPIC-flavoured 32-bit RISC modelled on
the subset of IA-64 the paper's evaluation exercises: integer ALU ops,
multi-cycle multiply/divide, floating point, loads/stores, predicated
branches and the multipass ``RESTART`` directive.
"""

from .builder import ProgramBuilder
from .functional import (ExecutionLimitExceeded, FunctionalSimulator, execute,
                         to_int32)
from .instruction import Instruction
from .opcodes import FUClass, Opcode, OpSpec, spec_of
from .program import WORD_SIZE, Program, ProgramError, word_addr
from .registers import (F, NUM_REGS, P, R, TRUE_PRED, ZERO_REG, is_fp_reg,
                        is_int_reg, is_pred_reg, parse_reg, reg_name)
from .trace import Trace, TraceEntry

__all__ = [
    "F", "FUClass", "FunctionalSimulator",
    "ExecutionLimitExceeded",
    "Instruction", "NUM_REGS", "Opcode", "OpSpec", "P", "Program",
    "ProgramBuilder", "ProgramError", "R", "TRUE_PRED", "Trace",
    "TraceEntry", "WORD_SIZE", "ZERO_REG", "execute", "is_fp_reg",
    "is_int_reg", "is_pred_reg", "parse_reg", "reg_name", "spec_of",
    "to_int32", "word_addr",
]
