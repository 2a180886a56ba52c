"""The benchmark's own test, at a tiny scale.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload untraced and traced on three kernels at scale 0.02
against a reference digest built in the test, and checks that every
metric named in BENCHMARK.json is emitted with its unit, that traced
and untraced runs give identical stats, that a perturbed digest is
caught, and that a checkout without the simulator gets no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import common
import make_reference
import run
import sweep
import warm

TINY_KERNELS = ("vpr", "parser", "gzip")
TINY_SCALE = 0.02
DECLARED = json.loads((common.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    reference = tmp_path_factory.mktemp("ref") / "reference.json"
    patch = pytest.MonkeyPatch()
    try:
        for module in (common, run, sweep, make_reference):
            patch.setattr(module, "KERNELS", TINY_KERNELS)
        patch.setattr(run, "COLD_SCALE", TINY_SCALE)
        patch.setattr(warm, "SCALE", TINY_SCALE)
        patch.setattr(sweep, "SCALE", TINY_SCALE)
        patch.setattr(common, "REFERENCE", reference)
        make_reference.main()
        yield {(name, trace): run.run_workload(name, 7, 0.01, trace)
               for name in run.WORKLOADS for trace in (False, True)}
    finally:
        patch.undo()


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_every_metric_is_emitted_with_its_unit(results, name, trace):
    result = results[(name, trace)]
    assert result["correct"] and result["failed"] == 0, \
        result["_extra"]["problems"]
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_stats(results, name):
    untraced = results[(name, False)]["_extra"]["digests"]
    traced = results[(name, True)]["_extra"]["digests"]
    shared = set(untraced) & set(traced)
    assert shared
    assert {c: untraced[c] for c in shared} == {c: traced[c] for c in shared}


def test_paper_cold_layers_account_for_wall_time(results):
    metrics = results[("paper-cold", True)]["metrics"]
    assert metrics["isa.execute_s"]["value"] > 0
    assert metrics["ooo.ooo.first_run_s"]["value"] > 0
    # The run itself fails past ACCOUNTING_TOLERANCE; this pins that
    # the gap is measured, not just tolerated.
    assert abs(metrics["harness.unaccounted_s"]["value"]) < 0.05


def test_perturbed_digest_is_caught():
    doc = {"cycles": 10, "instructions": 5, "stalls": {}, "counters": {},
           "branch_accuracy": 1.0}
    cid = common.cell_id(1.0, {}, "vpr", "inorder")
    checker = common.Checker({cid: common.digest(doc)})
    assert checker.check(1.0, {}, "vpr", "inorder", doc)
    perturbed = dict(doc, counters={"mispredicts": 1})
    assert not checker.check(1.0, {}, "vpr", "inorder", perturbed)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_checkout_without_source_gets_no_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
