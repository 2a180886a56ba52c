"""Differential property tests for the simulation fast path.

The stall fast-forward (``BaseCore.next_event_cycle``), the columnar
kernels and the column-indexed inner loops must be *observationally
invisible*: every statistic a core reports — cycles, per-category
breakdown, counters, branch accuracy — must be bit-identical to the
cycle-by-cycle reference loop (``slow=True``), and attaching a
per-event tracer (which routes the OOO and multipass families to
their scalar loops) must not change the numbers either.

Hypothesis drives the same adversarial program generator as
``test_random_programs``; the golden suite pins the packaged workloads,
this suite pins the contract on arbitrary small programs.
"""

from hypothesis import HealthCheck, given, settings

from repro.compiler import compile_program
from repro.harness import run_model
from repro.isa import execute
from repro.telemetry import TelemetrySink, Tracer

from .test_random_programs import materialize, programs

ALL_MODELS = ("inorder", "multipass", "runahead", "twopass", "ooo",
              "ooo-realistic", "multipass-noregroup",
              "multipass-norestart", "multipass-hwrestart")


def _comparable(stats):
    """Every externally observable statistic of one run."""
    return (stats.cycles, stats.instructions, dict(stats.cycle_breakdown),
            dict(stats.counters), stats.branch_accuracy)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_fast_forward_matches_slow_reference(spec):
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    for model in ALL_MODELS:
        fast = run_model(model, trace)
        slow = run_model(model, trace, slow=True)
        assert _comparable(fast) == _comparable(slow), model


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_traced_matches_untraced_on_fast_path(spec):
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    for model in ("inorder", "multipass", "runahead", "ooo",
                  "ooo-realistic"):
        untraced = run_model(model, trace)
        traced = run_model(model, trace, tracer=Tracer(TelemetrySink()))
        assert _comparable(untraced) == _comparable(traced), model
