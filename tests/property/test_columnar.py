"""Columnar-vs-scalar differential property suite.

The columnar OOO kernel (:mod:`repro.ooo.columnar`) and the columnar
tightenings in the other cores must be *observationally equivalent* to
the cycle-by-cycle scalar reference (``slow=True``): identical cycle
counts, identical stall attribution, identical counters, and — the
strongest form of the contract — an identical **retired-instruction
stream**: the same seqs commit in the same order at the same cycles.

This is the gate named by the PR-7 tentpole: the scalar inner loops may
only be retired once this suite (plus the golden matrix) pins every
columnar path against them.  Hypothesis drives the same adversarial
program generator as ``test_random_programs`` — bounded loops of random
ALU/memory/predicate bodies, with and without RESTART directives — so
the contract is probed on arbitrary programs, not just the packaged
workloads.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.analysis.bounds import cycle_lower_bound
from repro.compiler import compile_program
from repro.harness import (ABLATION_FACTORIES, MODEL_FACTORIES,
                           make_model, run_model)
from repro.isa import ProgramBuilder, R, execute

from .test_random_programs import materialize, programs

#: Every registered model variant (primary + ablations) — 9 as of PR 7.
ALL_MODELS = sorted({**MODEL_FACTORIES, **ABLATION_FACTORIES})

#: The models whose fast path is a columnar event-driven kernel: the
#: OOO pair (PR 7) and the multipass family (PR 9).
COLUMNAR_MODELS = ("ooo", "ooo-realistic", "multipass", "runahead",
                   "twopass", "multipass-norestart",
                   "multipass-noregroup", "multipass-hwrestart")

#: The multipass-family subset (advance/rally passes, SRF/ASC state).
MULTIPASS_MODELS = ("multipass", "runahead", "twopass",
                    "multipass-norestart", "multipass-noregroup",
                    "multipass-hwrestart")


class RetireRecorder:
    """A ``core.replay`` stand-in that records the retired stream.

    Cores call ``replay.commit(entry)`` once per architecturally retired
    instruction, in commit order; recording the seqs observes the full
    retirement stream without tracing (which would force the scalar
    loop and defeat the differential).
    """

    def __init__(self):
        self.seqs = []

    def commit(self, entry):
        self.seqs.append(entry.seq)

    def finish(self):
        """Called by ``finalize()``; nothing to verify here."""


def _comparable(stats):
    return (stats.cycles, stats.instructions, dict(stats.cycle_breakdown),
            dict(stats.counters), stats.branch_accuracy)


def _traced_summary(model, trace, slow):
    """Stats plus the ``MetricsSink`` summary of one traced run.

    The fast run folds the record the kernel writes inline; the slow
    run streams per-event telemetry from the scalar loop, folded
    through ``MetricsSink.emit``.
    """
    from repro.telemetry import MetricsSink, TelemetrySink, Tracer

    if not slow:
        sink = MetricsSink()
        stats = run_model(model, trace, tracer=Tracer(sink))
        return stats, sink.summary()
    stream = TelemetrySink()
    stats = run_model(model, trace, slow=True, tracer=Tracer(stream))
    sink = MetricsSink()
    for event in stream.events:
        sink.emit(event)
    return stats, sink.summary()


def _run_recorded(model, trace, slow):
    core = make_model(model, trace, slow=slow)
    recorder = RetireRecorder()
    core.replay = recorder
    stats = core.run()
    return stats, recorder.seqs


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_columnar_matches_scalar_everywhere(spec):
    """Cycles, breakdown, counters and accuracy agree on all 9 variants,
    and so does the telemetry summary: the record the kernel writes
    folds to exactly what the scalar loop's event stream folds to."""
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    for model in ALL_MODELS:
        fast = run_model(model, trace)
        slow = run_model(model, trace, slow=True)
        assert _comparable(fast) == _comparable(slow), model
        fast_traced, fast_summary = _traced_summary(model, trace, False)
        slow_traced, slow_summary = _traced_summary(model, trace, True)
        assert _comparable(fast_traced) == _comparable(fast), model
        assert _comparable(slow_traced) == _comparable(fast), model
        assert fast_summary == slow_summary, model


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_retired_streams_identical(spec):
    """The columnar kernel retires the same seqs in the same order.

    Every seq must appear exactly once (trace replay commits each
    dynamic instruction once) and the fast/slow streams must be equal
    element-for-element — a stricter check than the aggregate stats,
    which could mask compensating reorderings.
    """
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    n = len(trace)
    for model in ALL_MODELS:
        fast_stats, fast_seqs = _run_recorded(model, trace, slow=False)
        slow_stats, slow_seqs = _run_recorded(model, trace, slow=True)
        assert fast_seqs == slow_seqs, model
        assert sorted(fast_seqs) == list(range(n)), model
        assert _comparable(fast_stats) == _comparable(slow_stats), model


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, st.sampled_from(COLUMNAR_MODELS))
def test_audit_oracle_holds_on_columnar_path(spec, model):
    """The static cycle bound is sound against the columnar kernel too.

    The audit oracle's soundness claim (AUD001) quantifies over timing
    models, not loop implementations — so it must hold for the
    event-driven kernel exactly as for the scalar reference it
    replaced.
    """
    trace = execute(compile_program(materialize(spec).build()))
    bound = cycle_lower_bound(trace).bound
    fast = run_model(model, trace).cycles
    slow = run_model(model, trace, slow=True).cycles
    assert fast == slow, model
    assert bound <= fast, (
        f"{model}: columnar kernel simulated {fast} cycles below the "
        f"static lower bound {bound} (AUD001)")


def test_columnar_routing(monkeypatch):
    """Aggregating sinks ride the kernels; per-event sinks and --slow
    run the scalar spec loop.

    Under a folding sink (``MetricsSink``, ``StallProfileSink``) the
    columnar kernel writes the tracer's record itself, so the scalar
    loop must never be entered.  A per-event sink (``TelemetrySink``:
    the JSONL, ring-buffer, pipeview and Chrome exports) and ``--slow``
    still take the scalar loop.  Every route yields the same stats.
    """
    from repro.multipass.core import MultipassCore
    from repro.ooo.core import OutOfOrderCore
    from repro.telemetry import (MetricsSink, StallProfileSink,
                                 TelemetrySink, Tracer)

    spec = ([("add", *_regs(3))], 2, False)
    trace = execute(compile_program(materialize(spec).build()))
    scalar = {cls: cls._run_scalar for cls in (OutOfOrderCore,
                                               MultipassCore)}
    entered = []

    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"{self.model_name}: scalar loop entered")

    def spy_on(original):
        def spy(self, *args, **kwargs):
            entered.append(self.model_name)
            return original(self, *args, **kwargs)
        return spy

    for model in ("ooo", "ooo-realistic", "multipass", "runahead",
                  "twopass"):
        for cls in scalar:
            monkeypatch.setattr(cls, "_run_scalar", forbidden)
        kernel = [make_model(model, trace).run(),
                  make_model(model, trace,
                             tracer=Tracer(MetricsSink())).run(),
                  make_model(model, trace,
                             tracer=Tracer(StallProfileSink())).run()]
        for cls, original in scalar.items():
            monkeypatch.setattr(cls, "_run_scalar", spy_on(original))
        del entered[:]
        spec_runs = [make_model(model, trace, slow=True).run(),
                     make_model(model, trace,
                                tracer=Tracer(TelemetrySink())).run()]
        assert len(entered) == 2, model
        expected = _comparable(spec_runs[0])
        for stats in kernel + spec_runs:
            assert _comparable(stats) == expected, model


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_multipass_family_retired_streams_identical(spec):
    """Dedicated multipass-family differential: the columnar advance/
    rally kernel retires the same seqs in the same order as the scalar
    reference, on every family variant, with and without RESTART
    directives in the generated program."""
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    n = len(trace)
    for model in MULTIPASS_MODELS:
        fast_stats, fast_seqs = _run_recorded(model, trace, slow=False)
        slow_stats, slow_seqs = _run_recorded(model, trace, slow=True)
        assert fast_seqs == slow_seqs, model
        assert sorted(fast_seqs) == list(range(n)), model
        assert _comparable(fast_stats) == _comparable(slow_stats), model


def _idle_skip_program(padding: int):
    """A cold-miss load, ``padding`` independent ALU ops, a dependent
    consumer: the consumer stalls architecturally on the miss, the
    advance pass drains, and the machine goes idle until the fill."""
    b = ProgramBuilder(f"idle-skip-{padding}")
    for i in range(2, 8):
        b.movi(R(i), i)
    b.movi(R(12), 0x1000)
    b.ld(R(1), R(12), 0)
    for i in range(padding):
        r = R(2 + (i % 6))
        b.addi(r, r, 1)
    b.add(R(8), R(1), R(1))
    b.halt()
    return b.build()


def test_pass_restart_lands_on_first_skipped_cycle():
    """Idle-skip boundary sweep for the multipass kernel.

    While the architectural stream is blocked on a cold memory miss the
    kernel fast-forwards idle cycles to the next event.  The pass
    restart (the trigger-load fill that re-enters rally — and, on the
    hardware-restart ablation, the wheel/heap pready rendezvous) must
    never be jumped over.  Sweeping the padding length slides the stall
    entry cycle one step per iteration relative to the fixed fill time,
    so some alignment in the sweep places the restart event exactly on
    the first skipped cycle; fast and slow must agree at every
    alignment, including that one.
    """
    for padding in range(0, 40):
        trace = execute(compile_program(_idle_skip_program(padding)))
        n = len(trace)
        for model in ("multipass", "runahead", "multipass-hwrestart"):
            fast_stats, fast_seqs = _run_recorded(model, trace,
                                                  slow=False)
            slow_stats, slow_seqs = _run_recorded(model, trace,
                                                  slow=True)
            assert fast_seqs == slow_seqs, (model, padding)
            assert sorted(fast_seqs) == list(range(n)), (model, padding)
            assert _comparable(fast_stats) == _comparable(slow_stats), (
                model, padding)


def _regs(k):
    from repro.isa import R
    return (R(1), R(2), R(k))
