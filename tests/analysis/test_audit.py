"""The cycle-bound oracle (`repro.analysis.audit`) and its sweep-engine
integration."""

from types import SimpleNamespace

import pytest

from repro.analysis import diagnostics as dc
from repro.analysis.audit import (AuditViolation, audit_matrix,
                                  check_bound)
from repro.analysis.bounds import cycle_lower_bound
from repro.harness import run_model
from repro.harness.parallel import sweep
from repro.isa import ProgramBuilder, R, execute


def chain_trace(depth=6):
    b = ProgramBuilder("chain")
    b.movi(R(1), 0)
    for _ in range(depth):
        b.addi(R(1), R(1), 1)
    b.halt()
    return execute(b.build())


# -- check_bound ------------------------------------------------------------

def test_check_bound_passes_on_real_simulation():
    trace = chain_trace()
    stats = run_model("inorder", trace)
    cell = check_bound(stats, trace, "inorder", "chain")
    assert cell.ok
    assert cell.verified
    assert cell.margin >= 1.0
    assert cell.cycles == stats.cycles
    assert cell.to_dict()["ok"] is True


def test_check_bound_raises_on_sub_physical_cycles():
    trace = chain_trace()
    bound = cycle_lower_bound(trace).bound
    assert bound > 1
    fake = SimpleNamespace(cycles=bound - 1)
    with pytest.raises(AuditViolation) as excinfo:
        check_bound(fake, trace, "inorder", "chain")
    violation = excinfo.value
    assert violation.model == "inorder"
    assert violation.workload == "chain"
    assert violation.cycles == bound - 1
    assert violation.diagnostic.code == dc.AUD001
    assert "AUD001" in str(violation)


# -- audit_matrix -----------------------------------------------------------

def test_audit_matrix_smoke_cell():
    report = audit_matrix(models=["inorder"], workloads=["vpr"],
                          scale=0.05)
    assert report.ok
    assert len(report.cells) == 1
    (cell,) = report.cells
    assert cell.workload == "vpr" and cell.model == "inorder"
    assert cell.margin >= 1.0
    assert "audit PASSED" in report.render()
    doc = report.to_dict()
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert len(doc["cells"]) == 1


def test_audit_matrix_rejects_unknown_model():
    with pytest.raises(KeyError):
        audit_matrix(models=["warpdrive"], workloads=["vpr"], scale=0.05)


def test_audit_matrix_records_unverified_cells(monkeypatch):
    def boom(model, trace, config=None, **kwargs):
        raise RuntimeError("simulator exploded")

    monkeypatch.setattr("repro.harness.experiment.run_model", boom)
    report = audit_matrix(models=["inorder"], workloads=["vpr"],
                          scale=0.05)
    assert report.ok                      # unverified, not violated
    assert len(report.unverified) == 1
    assert "RuntimeError" in report.unverified[0].error
    assert "unverified" in report.render()


def test_audit_matrix_attaches_slack_profiles():
    report = audit_matrix(models=["inorder"], workloads=["vpr"],
                          scale=0.05, slack_workloads=["vpr"])
    assert "vpr" in report.slack
    assert "slack profile: vpr" in report.render()
    assert report.to_dict()["slack"]["vpr"]["rows"]


# -- sweep --audit ----------------------------------------------------------

def test_sweep_audit_passes_on_real_models():
    report = sweep(["inorder"], ["vpr"], scale=0.05, jobs=1, audit=True)
    assert report.ok
    assert report.simulated == 1


def test_sweep_audit_turns_violation_into_failure_row(monkeypatch):
    fake = SimpleNamespace(cycles=0)
    monkeypatch.setattr("repro.harness.parallel.run_model",
                        lambda *args, **kwargs: fake)
    report = sweep(["inorder"], ["vpr"], scale=0.05, jobs=1, audit=True)
    assert not report.ok
    (failure,) = report.failures
    assert failure.attempts == 2
    assert failure.error.startswith("AuditViolation:")
    assert "AUD001" in failure.error


def test_sweep_audit_skips_cache_reads(tmp_path):
    cache = str(tmp_path / "cache")
    warm = sweep(["inorder"], ["vpr"], scale=0.05, jobs=1,
                 results_cache=cache)
    assert warm.simulated == 1
    audited = sweep(["inorder"], ["vpr"], scale=0.05, jobs=1,
                    results_cache=cache, audit=True)
    # The audit needs the worker's trace, so the cached stats are not
    # read back even though the key matches.
    assert audited.cache_hits == 0
    assert audited.simulated == 1
