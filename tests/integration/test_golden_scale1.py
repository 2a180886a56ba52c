"""Scale-1.0 results tier: a stats digest for every primary cell.

The paper's figures are produced at scale 1.0, where the traces are ten
times longer than the tier-1 goldens' and exercise cache and predictor
state the short runs never reach.  ``tests/golden/scale1.json`` pins,
for all 60 (workload, model) cells of the primary matrix, the cycle
count and a SHA-256 digest of the same payload the scale-0.1 goldens
store in full (cycles, instructions, stall breakdown, branch accuracy
and every counter).

The tier takes a few tens of seconds, so it is marked ``slow``:
pyproject's ``addopts`` deselects it from the default (tier-1) run and
``scripts/check.sh`` runs it with ``-m slow``.  Regenerate the digests
deliberately with::

    pytest -m slow tests/integration/test_golden_scale1.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness import MODEL_FACTORIES, TraceCache, run_model
from repro.workloads import ALL_WORKLOADS

from .test_golden_stats import _payload

pytestmark = pytest.mark.slow

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "scale1.json"
SCALE = 1.0
MODELS = sorted(MODEL_FACTORIES)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _cells(workload):
    # One trace per test, dropped afterwards: holding all twelve
    # scale-1.0 traces at once would cost several hundred MB.
    trace = TraceCache(SCALE).trace(workload)
    cells = {}
    for model in MODELS:
        payload = _payload(run_model(model, trace))
        cells[model] = {"cycles": payload["cycles"],
                        "digest": _digest(payload)}
    return cells


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_scale1_digest(workload, request):
    actual = _cells(workload)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if request.config.getoption("--update-golden"):
        golden[workload] = actual
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True)
                          + "\n")
        pytest.skip(f"regenerated {workload} in {GOLDEN.name}")
    assert workload in golden, (
        f"no scale-1.0 digest for {workload}; generate it with "
        f"pytest -m slow {Path(__file__).name} --update-golden")
    assert golden[workload] == actual, (
        f"{workload}: scale-1.0 stats drifted from {GOLDEN.name}:\n"
        + json.dumps({"golden": golden[workload], "actual": actual},
                     indent=2, sort_keys=True))
