"""Fault handling: a bad cell degrades to a failure row, never a hang.

The injected runners below must be module-level functions: the engine
pickles the runner by reference into its worker processes.
"""

import os
import time

import pytest

from repro.harness import SweepError, run_matrix
from repro.harness.parallel import simulate_cell, sweep
from repro.service import JobSpec

from .routes import run_jobs

SCALE = 0.05
WORKLOADS = ("vpr", "parser")
MODELS = ("inorder", "multipass")


def _boom(spec):
    if spec.workload == "vpr" and spec.model == "multipass":
        raise RuntimeError("injected fault")
    return simulate_cell(spec)


def _die(spec):
    if spec.workload == "vpr" and spec.model == "multipass":
        os._exit(1)
    return simulate_cell(spec)


def _flaky_for_sleep(spec):
    if spec.model == "multipass":
        time.sleep(60)
    return simulate_cell(spec)


def test_raising_cell_records_failure_row_and_retry():
    report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=2, runner=_boom)
    assert not report.ok
    [failure] = report.failures
    assert (failure.workload, failure.model) == ("vpr", "multipass")
    assert "RuntimeError: injected fault" in failure.error
    assert failure.attempts == 2, "failed cell must be retried once"
    # Every other cell still completed and landed in the matrix.
    assert ("vpr", "multipass") not in report.matrix.results
    good = [c for c in ((w, m) for w in WORKLOADS for m in MODELS)
            if c != ("vpr", "multipass")]
    for cell in good:
        assert cell in report.matrix.results
    assert report.simulated == len(good)
    # The operator-facing summary is non-zero/loud about it.
    assert "1 failed" in report.summary()
    assert "vpr/multipass" in report.summary()


def test_raising_cell_serial_path():
    report = sweep(MODELS, ("vpr",), scale=SCALE, jobs=1, runner=_boom)
    assert not report.ok
    [failure] = report.failures
    assert failure.attempts == 2


@pytest.mark.parametrize("route", ["sweep", "service"])
def test_worker_death_fails_only_its_cell(route):
    """A cell that kills its worker takes the pooled attempt of every
    cell in flight down with it; retried alone, only it fails again."""
    if route == "sweep":
        report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=2,
                       runner=_die)
    else:
        # The second job needs a simulation, so it must run on a fleet
        # rebuilt after the first job broke it.
        report, after = run_jobs(
            [JobSpec(workloads=WORKLOADS, models=MODELS, scale=SCALE),
             JobSpec(workloads=("parser",), models=("ooo",),
                     scale=SCALE)],
            runner=_die)
        assert after.ok and after.simulated == 1
    [failure] = report.failures
    assert (failure.workload, failure.model) == ("vpr", "multipass")
    assert failure.attempts == 2
    assert failure.error == "worker process died (broken pool)"
    expected = run_matrix(MODELS, WORKLOADS, scale=SCALE).results
    del expected[("vpr", "multipass")]
    assert report.matrix.results == expected


def test_wedged_cell_times_out_and_is_recorded():
    report = sweep(MODELS, ("vpr",), scale=SCALE, jobs=2, timeout=1.0,
                   runner=_flaky_for_sleep)
    assert not report.ok
    [failure] = report.failures
    assert (failure.workload, failure.model) == ("vpr", "multipass")
    assert "timed out after 1s" in failure.error
    assert failure.attempts == 2
    # The healthy cell on the same grid completed under the same timer.
    assert ("vpr", "inorder") in report.matrix.results


# run_matrix has no runner hook, so inject the fault by swapping the
# default runner the engine resolves at call time.
def test_run_matrix_raises_on_persistent_failure(monkeypatch):
    import repro.harness.parallel as parallel_mod
    monkeypatch.setattr(parallel_mod, "simulate_cell", _boom)
    with pytest.raises(SweepError, match="injected fault"):
        run_matrix(MODELS, ("vpr",), scale=SCALE, parallel=2)
