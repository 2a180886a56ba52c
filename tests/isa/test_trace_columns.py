"""Pin the trace columns to an independent re-execution.

A :class:`~repro.isa.trace.Trace` is flat per-seq columns: the dynamic
ones the executor appends while it runs and the static ones expanded
from per-``(pc, executed)`` tables.  Every column of every seq must
agree with a fresh :class:`~repro.isa.functional.FunctionalSimulator`
single-stepping the same program — including nullification semantics
(``is_load``/``is_store``/``issue_fu`` follow ``executed``,
``is_branch`` does not).  Two real workloads between them exercise
predication, nullified slots, restarts, loads, stores and branches.
"""

import pytest

from repro.analysis.audit import check_bound
from repro.harness import MODEL_FACTORIES, TraceCache, run_model
from repro.isa.functional import FunctionalSimulator
from repro.isa.opcodes import FUClass
from repro.isa.trace import (DYNAMIC_COLUMNS, PORT_CODE, QUEUE_CODE,
                             STATIC_COLUMNS)
from repro.machine import MachineConfig
from repro.pipeline.base import BaseCore

WORKLOADS = ("vpr", "bzip2")


@pytest.fixture(scope="module")
def traces():
    cache = TraceCache(scale=0.05)
    return {workload: cache.trace(workload) for workload in WORKLOADS}


def _multipass_kind(entry):
    if not entry.executed:
        return 1
    if entry.is_branch:
        return 2
    if entry.is_store:
        return 3
    if entry.is_load:
        return 4
    return 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_columns_match_stepped_reexecution(traces, workload):
    trace = traces[workload]
    n = len(trace)
    for name in DYNAMIC_COLUMNS + STATIC_COLUMNS:
        assert len(getattr(trace, name)) == n, name
    core = BaseCore(trace, MachineConfig(), 64)
    sim = FunctionalSimulator(trace.program, max_instructions=n + 1)
    kinds = set()
    for seq in range(n):
        entry = sim.step(seq)
        inst = entry.inst
        spec = inst.spec
        assert trace.inst[seq] is inst, seq
        assert trace.srcs[seq] == entry.srcs, seq
        assert trace.dests[seq] == entry.dests, seq
        assert trace.addr[seq] == entry.addr, seq
        assert trace.value[seq] == entry.value, seq
        assert trace.taken[seq] == entry.taken, seq
        assert trace.executed[seq] == entry.executed, seq
        issue_fu = core.issue_fu(entry)
        assert trace.fu[seq] is spec.fu, seq
        assert trace.issue_fu[seq] is issue_fu, seq
        assert trace.latency[seq] == spec.latency, seq
        assert trace.pc[seq] == inst.index, seq
        assert trace.stop[seq] == inst.stop, seq
        assert trace.is_load[seq] == entry.is_load, seq
        assert trace.is_store[seq] == entry.is_store, seq
        assert trace.is_branch[seq] == entry.is_branch, seq
        assert trace.is_restart[seq] == entry.is_restart, seq
        assert trace.mem_exec[seq] == (entry.is_load or entry.is_store), seq
        assert trace.is_predicated[seq] == inst.is_predicated, seq
        assert trace.static_dests[seq] == inst.dests, seq
        assert trace.port_code[seq] == PORT_CODE[issue_fu], seq
        assert trace.queue_code[seq] == QUEUE_CODE[issue_fu], seq
        assert trace.multipass_kind[seq] == _multipass_kind(entry), seq
        kinds.add(_multipass_kind(entry))
        if not entry.executed and spec.fu is not FUClass.NONE:
            kinds.add("nullified-unit")
        if entry.is_restart:
            kinds.add("restart")
    assert sim.registers == trace.final_registers
    assert sim.memory == trace.final_memory
    if workload == "vpr":
        assert {0, 1, 2, 3, 4, "nullified-unit"} <= kinds
    else:
        assert "restart" in kinds


def test_entries_are_views_of_the_columns(traces):
    trace = traces["vpr"]
    entries = trace.entries
    assert trace.entries is entries
    assert len(entries) == len(trace)
    for seq, entry in enumerate(entries):
        assert entry.seq == seq
        for name in DYNAMIC_COLUMNS:
            assert getattr(entry, name) is getattr(trace, name)[seq]


def test_primary_models_never_materialize_entries():
    """The production routes read columns only: running every primary
    model plus the AUD001 bound check builds no TraceEntry."""
    trace = TraceCache(scale=0.05).trace("mcf")
    for model in MODEL_FACTORIES:
        stats = run_model(model, trace)
        check_bound(stats, trace, model, "mcf")
    assert trace._entries is None
