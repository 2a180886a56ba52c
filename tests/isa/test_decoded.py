"""Pin the trace's flat columns to the per-entry properties.

The decoded per-seq fields live directly on :class:`~repro.isa.trace.Trace`
as columns.  Every column must agree with the corresponding ``TraceEntry``
property (including nullification semantics — ``is_load``/``is_store``
gated on ``executed``, ``is_branch`` not) for every entry.  A real
workload trace exercises predication, nullified slots, restarts, loads,
stores and branches.
"""

import pytest

from repro.harness.experiment import TraceCache
from repro.isa.opcodes import FUClass
from repro.machine import MachineConfig
from repro.pipeline.base import BaseCore


@pytest.fixture(scope="module")
def trace():
    return TraceCache(scale=0.05).trace("vpr")


def test_fields_match_entry_properties(trace):
    assert len(trace) == len(trace.entries)
    for i, entry in enumerate(trace.entries):
        inst = entry.inst
        spec = inst.spec
        assert trace.fu[i] is spec.fu
        assert trace.srcs[i] == entry.srcs
        assert trace.dests[i] == entry.dests
        assert trace.static_dests[i] == inst.dests
        assert trace.latency[i] == spec.latency
        assert trace.pc[i] == inst.index
        assert trace.stop[i] == inst.stop
        assert trace.executed[i] == entry.executed
        assert trace.is_load[i] == entry.is_load
        assert trace.is_store[i] == entry.is_store
        assert trace.is_branch[i] == spec.is_branch
        assert trace.is_restart[i] == entry.is_restart
        assert trace.mem_exec[i] == (entry.executed
                                     and (entry.is_load or entry.is_store))
        assert trace.addr[i] == entry.addr
        assert trace.value[i] == entry.value
        assert trace.taken[i] == entry.taken


def test_issue_fu_matches_basecore_rule(trace):
    """issue_fu mirrors BaseCore.issue_fu: NONE when nullified."""
    core = BaseCore(trace, MachineConfig(), 64)
    nullified = 0
    for i, entry in enumerate(trace.entries):
        assert trace.issue_fu[i] is core.issue_fu(entry)
        if trace.issue_fu[i] is FUClass.NONE and entry.inst.spec.fu \
                is not FUClass.NONE:
            nullified += 1
    assert nullified > 0, "workload should exercise nullified slots"
