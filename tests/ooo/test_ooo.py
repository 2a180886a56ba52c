"""Tests for the ideal and realistic out-of-order models."""

import gc

import pytest

from repro.compiler import CompileOptions
from repro.harness.experiment import TraceCache, run_model
from repro.isa import P, R
from repro.machine import MachineConfig
from repro.multipass import simulate_multipass
from repro.ooo import simulate_ooo, simulate_realistic_ooo
from repro.pipeline import StallCategory, simulate_inorder
from tests.conftest import build_trace
from tests.multipass.test_core import (overlap_kernel, persistence_kernel,
                                       restart_kernel)

NO_REORDER = CompileOptions(reorder=False, restarts=False)


def test_commits_every_instruction():
    for kernel in (overlap_kernel, persistence_kernel):
        trace = build_trace(kernel, compile_opts=NO_REORDER)
        for simulate in (simulate_ooo, simulate_realistic_ooo):
            stats = simulate(trace)
            assert stats.instructions == len(trace), kernel.__name__


def test_dataflow_overlaps_independent_misses():
    trace = build_trace(overlap_kernel, compile_opts=NO_REORDER)
    base = simulate_inorder(trace)
    ooo = simulate_ooo(trace)
    assert ooo.cycles < base.cycles * 0.7
    assert ooo.cycles < 220


def test_ooo_wakeup_beats_multipass_restart_on_chained_misses():
    """Fig. 1(c)/(d): OOO wakes E exactly when C returns; multipass only
    approximates this via restart, so OOO is at least as good."""
    trace = build_trace(restart_kernel, compile_opts=NO_REORDER)
    ooo = simulate_ooo(trace)
    mp = simulate_multipass(trace)
    assert ooo.cycles <= mp.cycles + 5


def test_ooo_not_limited_by_stop_bits():
    """Dependent chain split across groups still runs at dataflow speed."""
    def body(b):
        b.movi(R(1), 1)
        for i in range(2, 30):
            b.movi(R(i), i)       # independent work, many groups
        b.halt()

    trace = build_trace(body, compile_opts=NO_REORDER)
    ooo = simulate_ooo(trace)
    assert ooo.ipc > 3.0


def test_window_limit_caps_memory_level_parallelism():
    """A second miss beyond a small ROB cannot overlap the first."""
    def body(b):
        b.movi(R(1), 0xB00000)
        b.movi(R(2), 0xD00000)
        b.ld(R(3), R(1), 0)            # miss A
        b.add(R(4), R(3), R(3))        # dependent on A
        for i in range(100):           # filler wider than the small ROB
            b.movi(R(10 + (i % 50)), i)
        b.ld(R(5), R(2), 0)            # miss B, independent of A
        b.add(R(6), R(5), R(5))
        b.halt()

    trace = build_trace(body, compile_opts=NO_REORDER)
    small = simulate_ooo(trace, MachineConfig(ooo_window=16, ooo_rob=32))
    big = simulate_ooo(trace, MachineConfig(ooo_window=128, ooo_rob=256))
    # The big window overlaps A and B; the small one serializes them.
    assert big.cycles < small.cycles - 80


def test_realistic_queues_fill_under_long_miss():
    """Dependent work on a miss clogs the 16-entry queues; the realistic
    model falls behind ideal OOO."""
    def body(b):
        b.movi(R(1), 0xC00000)
        b.movi(R(30), 40)
        b.label("loop")
        b.ld(R(2), R(1), 0)            # cold miss each iteration
        for i in range(3, 20):         # dependent work clogs the int queue
            b.add(R(i), R(i - 1), R(2))
        b.addi(R(1), R(1), 4096)
        b.subi(R(30), R(30), 1)
        b.cmplti(P(1), R(30), 1)
        b.cmpeqi(P(2), P(1), 0)
        b.br("loop", pred=P(2))
        b.halt()

    trace = build_trace(body, compile_opts=NO_REORDER)
    ideal = simulate_ooo(trace)
    realistic = simulate_realistic_ooo(trace)
    assert realistic.cycles > ideal.cycles


def test_breakdown_sums_and_load_attribution():
    trace = build_trace(overlap_kernel, compile_opts=NO_REORDER)
    for simulate in (simulate_ooo, simulate_realistic_ooo):
        stats = simulate(trace)
        assert sum(stats.cycle_breakdown.values()) == stats.cycles
        assert stats.cycle_breakdown[StallCategory.LOAD] > 50


def test_mispredict_penalty_larger_than_inorder():
    """OOO pays 3 extra stages per refill (Table 2)."""
    def body(b):
        b.movi(R(1), 12345)
        b.movi(R(3), 300)
        b.label("loop")
        b.movi(R(4), 1103515245)
        b.mul(R(1), R(1), R(4))
        b.addi(R(1), R(1), 12345)
        b.shri(R(5), R(1), 16)
        b.andi(R(6), R(5), 1)
        b.cmpeqi(P(1), R(6), 1)
        b.br("skip", pred=P(1))
        b.addi(R(2), R(2), 2)
        b.label("skip")
        b.subi(R(3), R(3), 1)
        b.cmplti(P(2), R(3), 1)
        b.cmpeqi(P(4), P(2), 0)
        b.br("loop", pred=P(4))
        b.halt()

    trace = build_trace(body, compile_opts=NO_REORDER)
    ooo = simulate_ooo(trace)
    assert ooo.counters["mispredicts"] > 10
    assert ooo.cycle_breakdown[StallCategory.FRONT_END] > 0


def test_deterministic():
    trace = build_trace(persistence_kernel, compile_opts=NO_REORDER)
    a = simulate_ooo(trace)
    b = simulate_ooo(trace)
    assert a.cycles == b.cycles
    assert a.cycle_breakdown == b.cycle_breakdown


@pytest.fixture(scope="module")
def smoke_traces():
    cache = TraceCache(0.1)
    return {w: cache.trace(w) for w in ("mcf", "vpr", "equake")}


@pytest.mark.parametrize("model", ["ooo", "ooo-realistic"])
def test_repeat_run_triggers_no_collection(model, smoke_traces):
    """A repeat run allocates no per-instruction GC-tracked object.

    Calendar entries are int stamps and the dependence rows are
    memoized on the trace by the first run, so once the collector has
    been run a repeat run over a prebuilt trace stays below its gen-0
    threshold.  One tracked tuple per instruction would trigger several
    collections per run at this scale.
    """
    assert gc.isenabled()
    for trace in smoke_traces.values():
        run_model(model, trace)            # first run builds the rows
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    for workload, trace in smoke_traces.items():
        gc.collect()
        gc.callbacks.append(count)
        try:
            run_model(model, trace)
        finally:
            gc.callbacks.remove(count)
        assert len(collections) <= 1, (workload, collections)
        collections.clear()
