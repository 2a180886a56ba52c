"""The static cycle lower bound and slack/ineffectuality report
(`repro.analysis.bounds`)."""

import json
from pathlib import Path

import pytest

from repro.analysis.bounds import cycle_lower_bound, slack_report
from repro.harness import MODEL_FACTORIES, TraceCache, run_model
from repro.isa import P, ProgramBuilder, R, execute
from repro.resources import PortModel
from repro.workloads import ALL_WORKLOADS


def chain_trace(depth=10):
    """A pure dependence chain: r1 += 1, `depth` times."""
    b = ProgramBuilder("chain")
    b.movi(R(1), 0)
    for _ in range(depth):
        b.addi(R(1), R(1), 1)
    b.halt()
    return execute(b.build())


def wide_trace(n=24):
    """`n` independent movis: no dependence height, pure width."""
    b = ProgramBuilder("wide")
    for i in range(n):
        b.movi(R(1 + i % 8), i)
    b.halt()
    return execute(b.build())


# -- cycle_lower_bound ------------------------------------------------------

def test_dependence_chain_sets_dep_height():
    depth = 10
    bound = cycle_lower_bound(chain_trace(depth))
    # movi finishes at 1, each addi starts one cycle after the previous,
    # so the last addi starts at `depth` and the bound is depth + 1.
    assert bound.dep_height == depth + 1
    assert bound.binding == "dep_height"
    assert bound.bound == depth + 1


def test_hardwired_destinations_publish_nothing():
    """r0 and p0 read as constants, so a write to them delays no reader:
    the first add starts at 0 although the multiply into r0 ends at
    cycle 5, and the last entry starts at 1, after the first add."""
    b = ProgramBuilder("hardwired")
    b.movi(R(1), 3)
    b.mul(R(0), R(1), R(1))
    b.cmplt(P(0), R(1), R(1))
    b.add(R(2), R(0), R(0))
    b.add(R(3), R(2), R(0), pred=P(0))
    b.halt()
    bound = cycle_lower_bound(execute(b.build()))
    assert bound.dep_height == 2


def test_independent_work_sets_width_bound():
    bound = cycle_lower_bound(wide_trace(24))
    assert bound.entries == 25          # 24 movis + halt
    assert bound.dep_height == 1        # all starts are cycle 0
    assert bound.width_bound == 5       # ceil(25 / 6)
    assert bound.binding == "width"
    assert bound.bound == 5


def test_memory_ports_counted_for_loads():
    b = ProgramBuilder("mem")
    b.movi(R(1), 0x100)
    for _ in range(8):
        b.ld(R(2), R(1), 0)
    b.halt()
    b.data_word(0x100, 7)
    bound = cycle_lower_bound(execute(b.build()))
    assert bound.mem_bound == 2         # ceil(8 loads / 4 M ports)
    assert bound.int_bound == 2         # ceil((0 ALU + 8 mem) / 6)


def test_custom_port_model_changes_bound_without_caching():
    trace = wide_trace(24)
    narrow = cycle_lower_bound(trace, PortModel(width=1))
    assert narrow.width_bound == 25
    # The narrow result must not poison the default-port cache.
    assert cycle_lower_bound(trace).width_bound == 5


def test_bound_cached_on_trace():
    trace = chain_trace(4)
    first = cycle_lower_bound(trace)
    assert cycle_lower_bound(trace) is first
    assert trace._cycle_bound is first


def test_to_dict_has_all_components():
    doc = cycle_lower_bound(chain_trace(3)).to_dict()
    assert set(doc) == {"entries", "dep_height", "width_bound",
                        "mem_bound", "int_bound", "fp_bound", "br_bound",
                        "bound", "binding"}


def test_bound_below_every_model_on_hand_program():
    b = ProgramBuilder("mix")
    b.movi(R(1), 0x100)
    b.movi(R(2), 3)
    b.label("loop")
    b.ld(R(3), R(1), 0)
    b.add(R(4), R(3), R(2))
    b.st(R(4), R(1), 0)
    b.subi(R(2), R(2), 1)
    b.cmpnei(P(1), R(2), 0)
    b.br("loop", pred=P(1))
    b.halt()
    b.data_word(0x100, 7)
    trace = execute(b.build())
    bound = cycle_lower_bound(trace).bound
    for model in sorted(MODEL_FACTORIES):
        cycles = run_model(model, trace).cycles
        assert bound <= cycles, (model, bound, cycles)


# -- slack_report -----------------------------------------------------------

def test_critical_chain_has_zero_slack():
    report = slack_report(chain_trace(6))
    by_pc = {row.pc: row for row in report.rows}
    # Every addi sits on the critical path: zero slack, all critical.
    for pc in range(1, 7):
        assert by_pc[pc].min_slack == 0
        assert by_pc[pc].critical == by_pc[pc].executed


def test_overwritten_unread_value_is_ineffectual():
    b = ProgramBuilder("dead")
    b.movi(R(9), 1)                 # overwritten before any read
    b.movi(R(9), 2)                 # last writer: effectual
    b.halt()
    report = slack_report(execute(b.build()))
    by_pc = {row.pc: row for row in report.rows}
    assert by_pc[0].ineffectual == 1
    assert by_pc[1].ineffectual == 0
    assert report.ineffectual_total == 1


def test_nullified_predicate_chain_is_effectual():
    b = ProgramBuilder("nullified")
    b.movi(R(1), 0)                     # 0
    b.cmpnei(P(1), R(1), 0)             # 1: p1 = False
    b.addi(R(2), R(1), 1, pred=P(1))    # 2: nullified
    b.cmpnei(P(1), R(1), 5)             # 3: overwrites p1 (last writer)
    b.halt()                            # 4
    report = slack_report(execute(b.build()))
    by_pc = {row.pc: row for row in report.rows}
    # The first compare feeds only the nullified slot, and p1's final
    # value comes from pc 3 — yet deciding the nullification is an
    # observable effect, so pc 1 must not be flagged droppable.
    assert by_pc[1].ineffectual == 0
    # The nullified slot itself is counted but never "executed".
    assert by_pc[2].count == 1
    assert by_pc[2].executed == 0


def test_report_shapes_and_render():
    trace = chain_trace(3)
    report = slack_report(trace)
    doc = report.to_dict()
    assert set(doc) == {"bound", "executed", "ineffectual", "rows"}
    assert doc["bound"]["bound"] == report.bound.bound
    assert len(doc["rows"]) == len(report.rows)
    text = report.render(limit=2)
    assert "dependence-height bound" in text
    assert "more static" in text        # 5 static pcs, limit 2


# -- pinned bounds of the real workloads ------------------------------------

_PINNED = json.loads(
    (Path(__file__).resolve().parents[1] / "golden"
     / "cycle_bounds.json").read_text())
_TRACES = TraceCache(0.1)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_bounds_pinned(workload):
    """``tests/golden/cycle_bounds.json`` holds every component of the
    bound for each workload at scale 0.1, recorded from the dict-based
    readiness walk and per-entry port classification that the column
    walk replaced."""
    bound = cycle_lower_bound(_TRACES.trace(workload))
    assert bound.to_dict() == _PINNED[workload]
