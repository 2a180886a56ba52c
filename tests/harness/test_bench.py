"""Unit contracts of the benchmark comparison helpers.

The wall-clock numbers themselves are machine-dependent and live in the
recorded ``BENCH_PR<n>.json`` trajectory; what the tests can pin is the
comparison logic the check.sh perf gate runs on them: the total
wall-clock gate, the deterministic cycle-drift detector, the per-model
throughput gate behind ``repro bench --compare``, and the host-speed
scaling that makes a record comparable with a baseline taken at
another host speed.
"""

import pytest

from repro.harness import bench
from repro.harness.bench import compare_bench, compare_speedups, scaled


def _record(per_model, workloads=("vpr", "mcf", "equake")):
    total_cps = sum(m["cycles_per_second"] for m in per_model.values())
    total_wall = sum(m["wall_seconds"] for m in per_model.values())
    return {
        "schema": "repro-bench/1",
        "models": list(per_model),
        "workloads": list(workloads),
        "per_model": per_model,
        "total": {
            "wall_seconds": round(total_wall, 4),
            "cycles": sum(m["cycles"] for m in per_model.values()),
            "cycles_per_second": total_cps,
        },
    }


def _model(wall, cycles):
    return {
        "wall_seconds": wall,
        "cycles": cycles,
        "cycles_per_second": round(cycles / wall),
    }


def test_compare_bench_passes_within_budget():
    base = _record({"multipass": _model(1.0, 100000)})
    cur = _record({"multipass": _model(1.2, 100000)})
    assert compare_bench(cur, base, max_regression=0.25) == []


def test_compare_bench_flags_total_regression_and_cycle_drift():
    base = _record({"multipass": _model(1.0, 100000)})
    slow = _record({"multipass": _model(1.5, 100000)})
    findings = compare_bench(slow, base, max_regression=0.25)
    assert len(findings) == 1 and "wall-clock regressed" in findings[0]

    drifted = _record({"multipass": _model(1.0, 99999)})
    findings = compare_bench(drifted, base, max_regression=0.25)
    assert len(findings) == 1 and "cycle count drifted" in findings[0]


def test_compare_speedups_reports_per_model_ratios():
    base = _record({"multipass": _model(1.0, 100000),
                    "ooo": _model(1.0, 200000)})
    cur = _record({"multipass": _model(0.4, 100000),
                   "ooo": _model(1.0, 200000)})
    lines, regressions = compare_speedups(cur, base)
    assert regressions == []
    assert any("multipass" in line and "2.50x" in line for line in lines)
    assert any("ooo" in line and "1.00x" in line for line in lines)
    assert any(line.strip().startswith("total") for line in lines)


def test_compare_speedups_gates_per_model_throughput():
    """A single model regressing past the floor fails the gate even if
    the totals stay within budget — the check.sh multipass cell."""
    base = _record({"multipass": _model(1.0, 100000),
                    "inorder": _model(0.1, 160000)})
    cur = _record({"multipass": _model(2.0, 100000),
                   "inorder": _model(0.1, 160000)})
    lines, regressions = compare_speedups(cur, base, max_regression=0.25)
    assert len(regressions) == 1
    assert "multipass" in regressions[0]
    assert "0.50x" in regressions[0]


def test_compare_speedups_tolerates_mismatched_matrices():
    """Smoke records are comparable against full-matrix baselines: the
    ratio basis is cycles/second, with an explicit note."""
    base = _record({"multipass": _model(10.0, 1000000)},
                   workloads=tuple(f"wl{i}" for i in range(12)))
    cur = _record({"multipass": _model(0.1, 50000)})
    lines, regressions = compare_speedups(cur, base)
    assert regressions == []
    assert any("matrices differ" in line for line in lines)


def test_compare_speedups_skips_models_without_baseline():
    base = _record({"multipass": _model(1.0, 100000)})
    cur = _record({"multipass": _model(1.0, 100000),
                   "runahead": _model(1.0, 100000)})
    lines, regressions = compare_speedups(cur, base)
    assert regressions == []
    assert any("runahead" in line and "no baseline" in line
               for line in lines)


def test_scaled_reports_time_at_reference_speed():
    # Probes at twice the reference time: the host ran at half speed.
    assert scaled(3.0, 0.002, 0.002, 0.001) == pytest.approx(1.5)
    assert scaled(3.0, 0.001, 0.003, 0.001) == pytest.approx(1.5)


class _Clock:
    """``perf_counter`` that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("reference, expected", [(None, 1.0),
                                                 (0.001, 0.5)])
def test_run_bench_scales_cells_to_reference_probe(monkeypatch, reference,
                                                   expected):
    """Every cell is scaled by reference / probe; without a reference
    the record takes its fastest probe and says so."""
    monkeypatch.setattr(bench, "time", _Clock())
    monkeypatch.setattr(bench, "speed_probe", lambda: 0.002)
    record = bench.run_bench(["inorder"], ["vpr"], scale=0.01, repeats=2,
                             reference_probe_s=reference)
    assert record["reference_probe_s"] == (reference or 0.002)
    assert record["per_model"]["inorder"]["wall_seconds"] == expected
