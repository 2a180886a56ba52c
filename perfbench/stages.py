"""Trace preparation, stage by stage, as the traced runs see it.

The untraced runs build traces through ``TraceCache.trace`` like serial
``run_matrix`` does.  The traced runs make the same calls one stage at a
time so each gets a span: ``build_workload(verify=False)``,
``assert_valid``, ``compile_program``, ``execute``, ``Trace.decoded``
and the two dependence graphs of ``columns_of``.  A stage that a later
refactor retires is recorded in ``Spans.absent`` and skipped.
"""

from __future__ import annotations

from typing import Dict

from common import Spans, rss_mb

MAX_INSTRUCTIONS = 5_000_000


def staged_trace(workload: str, scale: float, spans: Spans,
                 counts: Dict[str, float]):
    """Build one trace from scratch with a span per stage.

    ``counts`` accumulates ``isa.trace_insts`` and ``isa.trace_mb`` (the
    resident-memory growth over execute, decode and columns).
    """
    from repro.analysis.verifier import assert_valid
    from repro.compiler import CompileOptions, compile_program
    from repro.isa import execute
    from repro.workloads import build_workload

    with spans.span("workloads.build"):
        program = build_workload(workload, scale, verify=False)
    with spans.span("analysis.verify"):
        assert_valid(program)
    with spans.span("compiler.compile"):
        compiled = compile_program(program, CompileOptions())
    before = rss_mb()
    with spans.span("isa.execute"):
        trace = execute(compiled, max_instructions=MAX_INSTRUCTIONS)
    decoded = None
    if hasattr(type(trace), "decoded"):
        with spans.span("isa.decode"):
            decoded = trace.decoded
    else:
        spans.absent.append("isa.decode")
    try:
        from repro.isa.columns import columns_of
    except ImportError:
        columns_of = None
    if columns_of is not None and decoded is not None:
        with spans.span("isa.columns"):
            columns = columns_of(decoded)
            columns.dependences(False)
            columns.dependences(True)
    else:
        spans.absent.append("isa.columns")
    counts["isa.trace_mb"] = (counts.get("isa.trace_mb", 0.0)
                              + max(0.0, rss_mb() - before))
    counts["isa.trace_insts"] = counts.get("isa.trace_insts", 0) + len(trace)
    return trace
