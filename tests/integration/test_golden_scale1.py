"""Scale-1.0 results tier: a stats digest for every primary cell.

The paper's figures are produced at scale 1.0, where the traces are ten
times longer than the tier-1 goldens' and exercise cache and predictor
state the short runs never reach.  ``tests/golden/scale1.json`` pins,
for all 60 (workload, model) cells of the primary matrix, the cycle
count and a SHA-256 digest of the same payload the scale-0.1 goldens
store in full (cycles, instructions, stall breakdown, branch accuracy
and every counter).

The same tier runs the fast==slow differential on a fixed subset at
scale 1.0 (``FAST_SLOW_WORKLOADS`` x every primary model): the default
route traced into a ``MetricsSink`` — the columnar kernels writing the
telemetry record — against the ``slow=True`` scalar loop streaming
per-event telemetry, on both the stats and the summaries.

``tests/golden/scale1_traces.json`` pins the traces themselves: for
each workload, a SHA-256 digest of every dynamic and static trace
column (value reprs, so ``1``, ``True`` and ``1.0`` differ) and of the
final registers and memory in insertion order.  It checks the
functional executor directly at the paper's scale, not only through the
stats the timing models derive from its trace.

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
from repro.isa.trace import DYNAMIC_COLUMNS, STATIC_COLUMNS
from repro.telemetry import MetricsSink, TeeSink, Tracer
from repro.workloads import ALL_WORKLOADS

from .test_golden_stats import _payload

pytestmark = pytest.mark.slow

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "scale1.json"
TRACE_GOLDEN = GOLDEN.with_name("scale1_traces.json")
SCALE = 1.0
MODELS = sorted(MODEL_FACTORIES)

#: The fast==slow subset: the paper's two headline rows (mcf, twolf),
#: about 16 s for all five models on both routes.
FAST_SLOW_WORKLOADS = ("mcf", "twolf")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _repr_digest(values, chunk=1 << 16) -> str:
    """SHA-256 of the reprs of ``values``, hashed a chunk at a time."""
    h = hashlib.sha256()
    for start in range(0, len(values), chunk):
        h.update(repr(values[start:start + chunk]).encode())
    return h.hexdigest()


def _trace_digests(trace) -> dict:
    digests = {"len": len(trace), "truncated": trace.truncated}
    for name in DYNAMIC_COLUMNS + STATIC_COLUMNS:
        values = getattr(trace, name)
        if name == "inst":
            values = [inst.index for inst in values]
        elif name in ("fu", "issue_fu"):
            values = [fu.name for fu in values]
        digests[name] = _repr_digest(values)
    digests["final_registers"] = _repr_digest(
        list(trace.final_registers.items()))
    digests["final_memory"] = _repr_digest(list(trace.final_memory.items()))
    return digests


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


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_scale1_trace_digest(workload, request):
    actual = _trace_digests(TraceCache(SCALE).trace(workload))
    golden = (json.loads(TRACE_GOLDEN.read_text())
              if TRACE_GOLDEN.exists() else {})
    if request.config.getoption("--update-golden"):
        golden[workload] = actual
        TRACE_GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True)
                                + "\n")
        pytest.skip(f"regenerated {workload} in {TRACE_GOLDEN.name}")
    assert workload in golden, (
        f"no scale-1.0 trace digest for {workload}; generate it with "
        f"pytest -m slow {Path(__file__).name} --update-golden")
    drifted = sorted(name for name, digest in golden[workload].items()
                     if actual.get(name) != digest)
    assert not drifted, f"{workload}: trace columns drifted: {drifted}"


@pytest.mark.parametrize("workload", FAST_SLOW_WORKLOADS)
def test_scale1_fast_matches_slow(workload):
    trace = TraceCache(SCALE).trace(workload)
    golden = json.loads(GOLDEN.read_text())[workload]
    for model in MODELS:
        fast_sink = MetricsSink()
        fast = _payload(run_model(model, trace, tracer=Tracer(fast_sink)))
        # A TeeSink has no fold(), so the tracer emits per-event into
        # MetricsSink.emit: the event route, without storing events.
        slow_sink = MetricsSink()
        slow = _payload(run_model(model, trace, slow=True,
                                  tracer=Tracer(TeeSink(slow_sink))))
        assert fast == slow, (workload, model)
        assert _digest(fast) == golden[model]["digest"], (workload, model)
        assert fast_sink.summary() == slow_sink.summary(), (workload, model)
