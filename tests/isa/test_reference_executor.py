"""The compiled executor against the interpretive reference semantics.

``repro.isa.functional`` runs precompiled step closures from both
``run()`` and ``step()``, so those two share one semantics.  Hypothesis
generates small programs and checks that the executor agrees with the
independent interpreter in ``reference_interp.py`` on every dynamic
column (values and their types), the final registers (insertion order
included) and memory, the truncation flag — or on the exception raised.

The programs cover every opcode class: integer ALU with register and
immediate operands, compares into predicates, multiply and divide,
floating point, conversions, moves, loads and stores of both register
files, branches, jumps, NOP, RESTART and HALT.  They also produce
predicated and nullified instructions, writes to the hard-wired ``r0``
and ``p0``, int32 wraparound, division by zero, unaligned addresses,
programs without a HALT, and runs that hit the instruction limit with
and without ``truncate_ok``.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.isa import F, Instruction, Opcode, P, ProgramBuilder, R
from repro.isa.functional import FunctionalSimulator
from repro.isa.trace import DYNAMIC_COLUMNS

from .reference_interp import ReferenceInterpreter

INTS = [R(i) for i in range(8)]          # r0 reads 0, ignores writes
FPS = [F(i) for i in range(4)]
PREDS = [P(i) for i in range(4)]         # p0 reads true, ignores writes
INT_BASE, FP_BASE, COUNTER = R(10), R(11), R(12)
LOOP_PRED = P(5)
INT_REGION, FP_REGION = 0x100, 0x400

int_src = st.sampled_from(INTS + PREDS)  # predicates read as bools
int_dest = st.sampled_from(INTS)
fp_src = st.sampled_from(FPS + INTS)
fp_dest = st.sampled_from(FPS)
pred_dest = st.sampled_from(PREDS)
qualifier = st.sampled_from([P(0)] + PREDS)  # unconditional 2 in 5
wide_int = st.one_of(st.integers(-2**31, 2**31 - 1),
                     st.sampled_from([0, 1, -1, 2**31 - 1, -2**31]))
offset = st.integers(0, 15).map(lambda k: k * 4)

INT_OPS = [Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
           Opcode.SHL, Opcode.SHR, Opcode.MUL, Opcode.DIV]
INT_IMM_OPS = [Opcode.ADDI, Opcode.SUBI, Opcode.ANDI, Opcode.XORI,
               Opcode.SHLI, Opcode.SHRI]
CMP_OPS = [Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE]
CMP_IMM_OPS = [Opcode.CMPEQI, Opcode.CMPNEI, Opcode.CMPLTI, Opcode.CMPLEI]
FP_OPS = [Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV]
FP_CMP_OPS = [Opcode.FCMPLT, Opcode.FCMPLE]


def _inst(opcode, dests, srcs, imm=st.none()):
    return st.builds(lambda d, s, i, p: Instruction(opcode, d, s, imm=i,
                                                    pred=p),
                     dests, srcs, imm, qualifier)


def _one(reg):
    return st.tuples(reg)


def _two(a, b):
    return st.tuples(a, b)


instruction = st.one_of(
    st.sampled_from(INT_OPS).flatmap(
        lambda op: _inst(op, _one(int_dest), _two(int_src, int_src))),
    st.sampled_from(INT_IMM_OPS).flatmap(
        lambda op: _inst(op, _one(int_dest), _one(int_src),
                         st.one_of(wide_int, st.integers(0, 40)))),
    st.sampled_from(CMP_OPS).flatmap(
        lambda op: _inst(op, _one(pred_dest), _two(int_src, int_src))),
    st.sampled_from(CMP_IMM_OPS).flatmap(
        lambda op: _inst(op, _one(pred_dest), _one(int_src), wide_int)),
    st.sampled_from(FP_OPS).flatmap(
        lambda op: _inst(op, _one(fp_dest), _two(fp_src, fp_src))),
    st.sampled_from(FP_CMP_OPS).flatmap(
        lambda op: _inst(op, _one(pred_dest), _two(fp_src, fp_src))),
    _inst(Opcode.MOV, _one(int_dest), _one(int_src)),
    _inst(Opcode.MOVI, _one(int_dest), st.just(()),
          st.integers(-2**33, 2**33)),
    _inst(Opcode.FMOV, _one(fp_dest), _one(fp_src)),
    _inst(Opcode.FMOVI, _one(fp_dest), st.just(()),
          st.one_of(st.integers(-100, 100), st.floats(-1e3, 1e3))),
    _inst(Opcode.CVTIF, _one(fp_dest), _one(int_src)),
    _inst(Opcode.CVTFI, _one(int_dest), _one(fp_src)),
    _inst(Opcode.LD, _one(int_dest), st.just((INT_BASE,)), offset),
    _inst(Opcode.ST, st.just(()), _two(int_src, st.just(INT_BASE)), offset),
    _inst(Opcode.FLD, _one(fp_dest), st.just((FP_BASE,)), offset),
    _inst(Opcode.FST, st.just(()), _two(fp_src, st.just(FP_BASE)), offset),
    _inst(Opcode.NOP, st.just(()), st.just(())),
    _inst(Opcode.RESTART, st.just(()), _one(int_src)),
)

programs = st.fixed_dictionaries({
    "init": st.lists(wide_int, min_size=len(INTS), max_size=len(INTS)),
    "body": st.lists(instruction, min_size=1, max_size=24),
    "trips": st.integers(1, 4),
    "skip": st.one_of(st.none(), st.tuples(st.integers(0, 20), qualifier)),
    "jump": st.booleans(),
    # An extra load or store misaligned by 1-3 bytes, in a third of
    # the programs.
    "unaligned": st.tuples(st.integers(0, 20),
                           st.sampled_from([0] * 6 + [1, 2, 3]),
                           st.sampled_from([Opcode.LD, Opcode.ST])),
    "halt": st.integers(0, 9),          # 0: no HALT, falls off the end
    "int_words": st.lists(wide_int, min_size=16, max_size=16),
    "fp_words": st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16),
    "limit": st.sampled_from([10_000] * 5 + [0, 1, 7, 30, 100]),
    "truncate_ok": st.booleans(),
})


def _build(spec):
    b = ProgramBuilder("differential")
    for reg, value in zip(INTS[1:], spec["init"]):
        b.movi(reg, value)
    b.movi(INT_BASE, INT_REGION)
    b.movi(FP_BASE, FP_REGION)
    b.movi(COUNTER, spec["trips"])
    b.data_words(INT_REGION, spec["int_words"])
    b.data_words(FP_REGION, spec["fp_words"])
    body = list(spec["body"])
    at, misalign, opcode = spec["unaligned"]
    if misalign:
        dests, srcs = (((R(1),), (INT_BASE,)) if opcode is Opcode.LD
                       else ((), (R(1), INT_BASE)))
        body.insert(at % (len(body) + 1),
                    Instruction(opcode, dests, srcs, imm=misalign))
    b.label("loop")
    for i, inst in enumerate(body):
        if spec["skip"] is not None and i == spec["skip"][0] % len(body):
            b.br("skip", pred=spec["skip"][1])
        b.emit(inst)
    b.label("skip")
    b.subi(COUNTER, COUNTER, 1)
    b.cmpnei(LOOP_PRED, COUNTER, 0)
    b.br("loop", pred=LOOP_PRED)
    if spec["jump"]:
        b.jmp("end")
        b.movi(R(1), 99)                # dead code
    b.label("end")
    if spec["halt"]:
        b.halt()
    else:
        b.nop()                         # then falls off the end
    return b.build()


def _run(executor, program, spec):
    """``("trace", trace)``, or the exception's type and message."""
    try:
        return "trace", executor(program, spec["limit"]).run(
            truncate_ok=spec["truncate_ok"])
    except Exception as exc:  # compared across executors
        return "raised", (type(exc), str(exc))


def _state(registers, memory):
    return repr(list(registers.items())), repr(list(memory.items()))


def _assert_agree(spec):
    """Both executors give the same trace or the same exception."""
    program = _build(spec)
    ref_kind, ref = _run(ReferenceInterpreter, program, spec)
    kind, got = _run(FunctionalSimulator, program, spec)
    assert kind == ref_kind, (ref, got)
    if kind == "raised":
        assert got == ref
        return kind, got
    assert len(got) == len(ref)
    assert got.truncated == ref.truncated
    assert all(a is b for a, b in zip(got.inst, ref.inst))
    for name in DYNAMIC_COLUMNS[1:]:
        assert repr(getattr(got, name)) == repr(getattr(ref, name)), name
    assert (_state(got.final_registers, got.final_memory)
            == _state(ref.final_registers, ref.final_memory))

    # The single-step interface replays the same stream.
    sim = FunctionalSimulator(program, spec["limit"])
    for seq in range(len(ref)):
        entry = sim.step(seq)
        assert entry.inst is ref.inst[seq]
        for name in DYNAMIC_COLUMNS[1:]:
            assert (repr(getattr(entry, name))
                    == repr(getattr(ref, name)[seq])), (seq, name)
    assert (_state(sim.registers, sim.memory)
            == _state(ref.final_registers, ref.final_memory))
    return kind, got


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_compiled_executor_matches_reference(spec):
    _assert_agree(spec)


def _every_opcode():
    """One unconditional instance of every non-control opcode, plus
    hard-wired destinations and a divide by zero."""
    r1, r2, r3, f1, f2, p1 = R(1), R(2), R(3), F(1), F(2), P(1)
    insts = [Instruction(op, (r3,), (r1, r2)) for op in INT_OPS]
    insts += [Instruction(op, (r3,), (r1,), imm=5) for op in INT_IMM_OPS]
    insts += [Instruction(op, (p1,), (r1, r2)) for op in CMP_OPS]
    insts += [Instruction(op, (p1,), (r1,), imm=7) for op in CMP_IMM_OPS]
    insts += [Instruction(op, (f2,), (f1, r2)) for op in FP_OPS]
    insts += [Instruction(op, (p1,), (f1, f2)) for op in FP_CMP_OPS]
    return insts + [
        Instruction(Opcode.DIV, (r3,), (r1, R(0))),
        Instruction(Opcode.FDIV, (f2,), (f1, R(0))),
        Instruction(Opcode.ADD, (R(0),), (r1, r2)),
        Instruction(Opcode.CMPLT, (P(0),), (r1, r2)),
        Instruction(Opcode.ST, (), (R(0), INT_BASE), imm=16),
        Instruction(Opcode.MOV, (R(4),), (P(0),)),
        Instruction(Opcode.MOV, (r3,), (p1,)),
        Instruction(Opcode.MOVI, (R(5),), (), imm=2**32 + 5),
        Instruction(Opcode.FMOV, (f2,), (f1,)),
        Instruction(Opcode.FMOVI, (f1,), (), imm=3),
        Instruction(Opcode.CVTIF, (f1,), (r1,)),
        Instruction(Opcode.CVTFI, (r3,), (f2,)),
        Instruction(Opcode.LD, (r3,), (INT_BASE,), imm=8),
        Instruction(Opcode.ST, (), (r3, INT_BASE), imm=12),
        Instruction(Opcode.FLD, (f2,), (FP_BASE,), imm=4),
        Instruction(Opcode.FST, (), (f2, FP_BASE), imm=0),
        Instruction(Opcode.NOP),
        Instruction(Opcode.RESTART, (), (r3,)),
        Instruction(Opcode.ADD, (r1,), (r1, r1), pred=p1),
    ]


def test_hand_picked_programs_agree():
    """Every opcode executes, and the run halts, truncates, hits the
    limit, falls off the end or raises an alignment error — the same
    way on both executors."""
    base = {"init": [2**31 - 1, -7, 3, 0, 0, 0, 0],
            "body": _every_opcode(), "trips": 2, "skip": (3, P(2)),
            "jump": True, "unaligned": (0, 0, Opcode.LD), "halt": 1,
            "int_words": list(range(16)),
            "fp_words": [0.5 * k for k in range(16)],
            "limit": 10_000, "truncate_ok": False}
    cases = [({}, "trace", None),
             ({"limit": 5, "truncate_ok": True}, "trace", None),
             ({"limit": 5}, "raised", "exceeded 5 dynamic instructions"),
             ({"halt": 0}, "raised", "fell off the end"),
             ({"unaligned": (9, 2, Opcode.LD)}, "raised",
              "unaligned address 258"),
             ({"unaligned": (9, 3, Opcode.ST)}, "raised",
              "unaligned address 259")]
    for change, expected, message in cases:
        spec = {**base, **change}
        kind, got = _assert_agree(spec)
        assert kind == expected, change
        if kind == "trace":
            assert got.truncated == spec["truncate_ok"]
        else:
            assert message in got[1], change
    _, trace = _assert_agree(base)
    executed = {inst.opcode for inst, ex in zip(trace.inst, trace.executed)
                if ex}
    assert executed == set(Opcode)
