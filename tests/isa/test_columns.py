"""Pin the derived trace data to its dynamic reference semantics.

The static dependence graph in ``repro.isa.columns`` claims to be
*exactly* the producer sets a timing core's dispatch stage would compute
by walking a rename table over the trace in seq order.  This suite
re-derives those sets with a straightforward dict-based reference walk
(for both rename disciplines) and asserts the CSR arrays agree entry by
entry, on a real workload trace that exercises predication, nullified
slots, loads, stores and branches.  The issue-resource columns are
pinned against the per-FU code tables.
"""

import pytest

from repro.harness.experiment import TraceCache
from repro.isa.columns import dependences, fetch_lines, fetch_runs
from repro.isa.opcodes import FUClass
from repro.isa.trace import PORT_CODE, QUEUE_CODE


@pytest.fixture(scope="module")
def trace():
    return TraceCache(scale=0.05).trace("vpr")


def _reference_producers(trace, merged_dests):
    """Dynamic rename-table walk: last writer of each source register."""
    last_writer = {}
    producers = []
    for seq in range(len(trace)):
        prods = []
        for src in trace.srcs[seq]:
            p = last_writer.get(src, -1)
            if p >= 0 and p not in prods:
                prods.append(p)
        if merged_dests and trace.is_predicated[seq]:
            dests = trace.static_dests[seq]
            for dest in dests:
                p = last_writer.get(dest, -1)
                if p >= 0 and p not in prods:
                    prods.append(p)
        else:
            dests = trace.dests[seq]
        for dest in dests:
            last_writer[dest] = seq
        producers.append(tuple(prods))
    return producers


@pytest.mark.parametrize("merged_dests", [False, True])
def test_static_producers_match_rename_walk(trace, merged_dests):
    graph = dependences(trace, merged_dests)
    reference = _reference_producers(trace, merged_dests)
    assert graph.prod_off[0] == 0
    assert graph.prod_off[len(trace)] == len(graph.prod_seq)
    for seq in range(len(trace)):
        assert graph.producers(seq) == reference[seq], seq


def test_merged_variant_differs_on_predicated_code(trace):
    """vpr predicates enough code that the two disciplines disagree."""
    ideal = dependences(trace, False)
    merged = dependences(trace, True)
    assert any(ideal.producers(seq) != merged.producers(seq)
               for seq in range(len(trace)))


@pytest.mark.parametrize("merged_dests", [False, True])
def test_consumer_lists_are_exact_transpose(trace, merged_dests):
    graph = dependences(trace, merged_dests)
    pairs = {(p, seq)
             for seq in range(len(trace))
             for p in graph.producers(seq)}
    transposed = set()
    for p in range(len(trace)):
        lo, hi = graph.cons_off[p], graph.cons_off[p + 1]
        consumers = graph.cons_seq[lo:hi]
        assert consumers == sorted(consumers), p
        for seq in consumers:
            transposed.add((p, seq))
    assert transposed == pairs


def test_issue_resource_columns(trace):
    assert len(trace.port_code) == len(trace.queue_code) == len(trace)
    for seq in range(len(trace)):
        fu = trace.issue_fu[seq]
        assert trace.port_code[seq] == PORT_CODE[fu], seq
        assert trace.queue_code[seq] == QUEUE_CODE[fu], seq
    # The queue partition: MEM -> 0, ALU/BR/NONE -> 1, FP/MULDIV -> 2.
    assert {QUEUE_CODE[FUClass.MEM]} == {0}
    assert {QUEUE_CODE[FUClass.ALU], QUEUE_CODE[FUClass.BR],
            QUEUE_CODE[FUClass.NONE]} == {1}
    assert {QUEUE_CODE[FUClass.FP], QUEUE_CODE[FUClass.MULDIV]} == {2}


def test_columns_cached_per_decoded_trace(trace):
    """Derived data is memoized per trace and per model/machine key."""
    assert dependences(trace, False) is dependences(trace, False)
    assert dependences(trace, True) is dependences(trace, True)
    assert dependences(trace, False) is not dependences(trace, True)
    assert fetch_runs(trace, 16, 64) is fetch_runs(trace, 16, 64)
    assert fetch_lines(trace, 16, 64) is not fetch_lines(trace, 16, 128)


def test_fetch_runs_end_at_line_changes(trace):
    lines = fetch_lines(trace, 16, 64)
    runs = fetch_runs(trace, 16, 64)
    for seq in range(len(trace)):
        end = runs[seq]
        assert end > seq
        assert all(lines[k] == lines[seq] for k in range(seq, end))
        assert end == len(trace) or lines[end] != lines[seq]
