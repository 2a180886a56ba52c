"""The wire protocol must round-trip results *bit-identically*.

This is the property the whole service stands on: a ``cell`` event is
a faithful encoding of a :class:`CellResult`, so stats that crossed
the wire compare equal — dataclass equality, every counter, every
memory field — to the locally simulated original.
"""

import json
from collections import Counter

import pytest

from repro.harness.parallel import CellResult, CellSpec, simulate_cell
from repro.memory.hierarchy import HierarchyStats
from repro.pipeline.stats import SimStats, StallCategory
from repro.service.protocol import (WIRE_VERSION, cell_event,
                                    cell_result_from_event, decode_line,
                                    encode_line)


def _synthetic_stats() -> SimStats:
    return SimStats(
        model="multipass", workload="vpr", cycles=1234,
        instructions=987,
        cycle_breakdown={StallCategory.EXECUTION: 800,
                         StallCategory.FRONT_END: 100,
                         StallCategory.OTHER: 34,
                         StallCategory.LOAD: 300},
        counters=Counter({"mispredicts": 7, "loads_issued": 42}),
        memory=HierarchyStats(
            accesses={"L1D": 50, "L1I": 200, "L2": 9, "L3": 4},
            misses={"L1D": 9, "L1I": 1, "L2": 4, "L3": 4},
            memory_accesses=4, mshr_merges=3,
            mshr_full_stall_cycles=11),
        branch_accuracy=0.875)


class TestStatsRoundTrip:
    def test_synthetic_stats_survive_json(self):
        stats = _synthetic_stats()
        wire = json.loads(json.dumps(stats.to_dict()))
        assert SimStats.from_dict(wire) == stats

    def test_memoryless_stats_survive_json(self):
        stats = _synthetic_stats()
        stats.memory = None
        assert SimStats.from_dict(stats.to_dict()) == stats

    def test_real_simulation_survives_json(self):
        # The acceptance-level claim: a genuinely simulated cell is
        # reconstructed bit-for-bit after a JSON round trip.
        for model in ("inorder", "multipass"):
            stats = simulate_cell(CellSpec("vpr", model, scale=0.05))
            wire = json.loads(json.dumps(stats.to_dict()))
            assert SimStats.from_dict(wire) == stats


class TestCellEvents:
    def test_ok_cell_round_trips(self):
        stats = _synthetic_stats()
        result = CellResult("vpr", "multipass", stats=stats,
                            attempts=1, duration=0.25)
        event = cell_event(result)
        assert event["kind"] == "cell"
        assert event["status"] == "ok"
        assert event["source"] == "simulated"
        assert event["dedup"] is False
        back = cell_result_from_event(
            decode_line(encode_line(event)))
        assert back.ok
        assert back.stats == stats
        assert (back.workload, back.model) == ("vpr", "multipass")
        assert back.attempts == 1
        assert back.source == "simulated"

    def test_cache_hit_marks_cached(self):
        result = CellResult("vpr", "inorder", stats=_synthetic_stats(),
                            source="cache")
        event = cell_event(result)
        assert cell_result_from_event(event).source == "cache"

    def test_failure_row_round_trips_with_sweep_schema(self):
        # Satellite contract: failures carry the exception class, the
        # cell id and the retry count — the exact CellResult schema the
        # batch engine reports.
        result = CellResult("vpr", "multipass",
                            error="RuntimeError: injected fault",
                            attempts=2)
        event = cell_event(result)
        assert event["status"] == "failed"
        assert "stats" not in event
        back = cell_result_from_event(
            decode_line(encode_line(event)))
        assert not back.ok
        assert back.error == "RuntimeError: injected fault"
        assert back.attempts == 2
        assert back.stats is None


class TestWireFraming:
    def test_encode_line_is_jsonl(self):
        line = encode_line({"kind": "done", "cells": 4})
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_line(line) == {"kind": "done", "cells": 4}

    def test_decode_rejects_unkinded_or_non_object_lines(self):
        with pytest.raises(ValueError):
            decode_line(b"[1, 2, 3]\n")
        with pytest.raises(ValueError):
            decode_line(b'{"cells": 4}\n')
        with pytest.raises(ValueError):
            decode_line(b"not json at all")

    def test_wire_version_is_pinned(self):
        # Bump deliberately with a matching protocol change, never by
        # accident.
        assert WIRE_VERSION == 1
