"""Model- and machine-dependent data derived from a trace.

The per-seq columns every core reads live on the
:class:`~repro.isa.trace.Trace` itself.  This module holds what a trace
alone does not determine — data that depends on the timing model's
rename discipline or on the machine's I-cache geometry — as functions
of the trace, memoized in ``trace.derived`` so a whole model sweep
shares one build:

* :func:`dependences` — the static dependence graph for one rename
  discipline, as the rows the OOO kernel reads: per-seq producer and
  consumer tuples and the packed issue-path flags;
* :func:`fetch_lines` / :func:`fetch_runs` — per-seq I-cache lines and
  same-line run ends for one geometry.

The dependence graph is *exact*, not an approximation, because every
timing model replays the architecturally correct trace in sequence
order: dispatch always walks seqs ``0, 1, 2, ...`` (a branch squash only
rolls the dispatch pointer back and replays the same seqs), so the
rename-table state observed when seq ``i`` dispatches is a pure function
of the trace prefix ``[0, i)``.  The producers of ``i`` — the last
writers of its source registers (plus, on the merged-destination variant
used by the non-ideal OOO rename path, the last writers of a predicated
instruction's static destinations) — can therefore be computed once,
here, instead of being rediscovered at every dispatch.  Producer order
matches the dispatch-time dict construction (source order, first
occurrence wins), which the stall-attribution rules depend on.

Everything here is derived read-only data: it never changes simulation
semantics.  The equivalence of the static producer sets with the
dynamic rename-table walk is pinned by ``tests/isa/test_columns.py``.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, List, Tuple, TypeVar

from .registers import NUM_REGS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .trace import Trace

T = TypeVar("T")


def _memo(trace: "Trace", key: tuple, build: Callable[[], T]) -> T:
    """``build()`` once per ``(trace, key)``, cached in ``trace.derived``."""
    derived = trace.derived
    value = derived.get(key)
    if value is None:
        value = derived[key] = build()
    return value


class DependenceGraph:
    """Static producer and consumer rows for one rename discipline.

    ``prods[i]`` is the tuple of in-trace producers of seq ``i`` — the
    last prior writer of each of its source registers — deduplicated,
    in first-occurrence source order.  ``cons[p]`` is its transpose:
    every seq that names ``p`` as a producer, in ascending seq order.
    ``issue_kind`` packs the OOO kernel's issue-path flags per seq —
    bit 0 memory-executing, bit 1 branch, bit 2 has consumers — so one
    subscript in the issue tail replaces three flag-column probes.

    ``merged_dests=True`` reproduces the conventional-predication rename
    rule (no predicate renaming): a predicated instruction additionally
    depends on the prior writers of its *static* destinations, and its
    static destinations (rather than the dynamically written ones)
    become the new last-writers.
    """

    __slots__ = ("merged_dests", "prods", "cons", "issue_kind")

    def __init__(self, trace: "Trace", merged_dests: bool):
        self.merged_dests = merged_dests
        n = len(trace)
        reads, writes = trace.srcs, trace.dests
        # The merged discipline swaps in a predicated seq's static
        # destinations per seq inside the walk; the unmerged one zips
        # ``writes`` against itself with the flag held false.
        if merged_dests:
            sdests = trace.static_dests
            preds: Iterable[bool] = trace.is_predicated
        else:
            sdests = writes
            preds = repeat(False)

        # One rename walk.  ``readers[reg]`` collects, in seq order, the
        # consumers that reached ``last_writer[reg]`` through ``reg``;
        # when ``reg`` is overwritten (or the trace ends) they become
        # that writer's consumer row.  A writer of several registers
        # merges its chunks in seq order.
        #
        # Every producer row is allocated once, in its final form: a seq
        # with no producer keeps the shared ``()``, a one- or two-source
        # seq gets its tuple directly, and a longer row is collected in
        # a list and frozen with one ``tuple()``.  Tuples are GC-tracked
        # until their first collection, so an intermediate tuple per
        # source would cost the collector as much as a row does.
        #
        # Only registers some instruction writes ever get a writer, so
        # only they get a reader list (``None`` elsewhere): the lists
        # live through the whole walk, and each one alive across a
        # collection is promoted towards a full collection.
        last_writer = [-1] * NUM_REGS
        readers: List[List[int]] = [None] * NUM_REGS  # type: ignore
        for inst in trace.program.instructions:
            for reg in inst.dests:
                if readers[reg] is None:
                    readers[reg] = []
        prods: List[Tuple[int, ...]] = [()] * n
        cons: List[Tuple[int, ...]] = [()] * n

        def close(reg: int) -> None:
            p = last_writer[reg]
            chunk = readers[reg]
            rows = tuple(chunk)
            cons[p] = tuple(sorted(cons[p] + rows)) if cons[p] else rows
            chunk.clear()

        seq = -1
        for srcs, dests, sdest, pred in zip(reads, writes, sdests, preds):
            seq += 1
            if pred:
                # Without predicate renaming, a predicated write also
                # reads, and then writes, its static destinations.
                srcs += sdest
                dests = sdest
            k = len(srcs)
            if k == 2:
                # The common shape: a register operand plus the
                # qualifying predicate.
                a, b = srcs
                pa = last_writer[a]
                pb = last_writer[b]
                if pa >= 0:
                    readers[a].append(seq)
                    if pb >= 0 and pb != pa:
                        readers[b].append(seq)
                        prods[seq] = (pa, pb)
                    else:
                        prods[seq] = (pa,)
                elif pb >= 0:
                    readers[b].append(seq)
                    prods[seq] = (pb,)
            elif k == 1:
                src = srcs[0]
                p = last_writer[src]
                if p >= 0:
                    prods[seq] = (p,)
                    readers[src].append(seq)
            elif k:
                row: List[int] = []
                for src in srcs:
                    p = last_writer[src]
                    if p >= 0 and p not in row:
                        row.append(p)
                        readers[src].append(seq)
                if row:
                    prods[seq] = tuple(row)
            for dest in dests:
                chunk = readers[dest]
                if chunk:                      # close(dest), inlined
                    w = last_writer[dest]
                    prev = cons[w]
                    cons[w] = (tuple(sorted(prev + tuple(chunk))) if prev
                               else tuple(chunk))
                    chunk.clear()
                last_writer[dest] = seq
        for reg in range(NUM_REGS):
            if readers[reg]:
                close(reg)
        self.prods = prods
        self.cons = cons
        self.issue_kind = bytes([
            (1 if mem else 0) | (2 if branch else 0) | (4 if row else 0)
            for mem, branch, row in zip(trace.mem_exec, trace.is_branch,
                                        cons)])


def dependences(trace: "Trace",
                merged_dests: bool = False) -> DependenceGraph:
    """The static dependence graph for one rename discipline."""
    return _memo(trace, ("dependences", merged_dests),
                 lambda: DependenceGraph(trace, merged_dests))


def fetch_lines(trace: "Trace", inst_bytes: int,
                line_size: int) -> List[int]:
    """Per-seq I-cache line id column (``pc * inst_bytes // line``).

    The front end walks this instead of recomputing the line of every
    fetched seq.
    """
    return _memo(trace, ("fetch_lines", inst_bytes, line_size),
                 lambda: [pc * inst_bytes // line_size for pc in trace.pc])


def fetch_runs(trace: "Trace", inst_bytes: int,
               line_size: int) -> List[int]:
    """Per-seq same-line run ends over :func:`fetch_lines`.

    ``runs[i]`` is the first seq past ``i`` whose cache line differs, so
    a front end whose current line is already hot can advance to the
    run end in one step instead of per-seq.
    """
    def build() -> List[int]:
        lines = fetch_lines(trace, inst_bytes, line_size)
        n = len(lines)
        runs = [n] * n
        for i in range(n - 2, -1, -1):
            if lines[i] != lines[i + 1]:
                runs[i] = i + 1
            else:
                runs[i] = runs[i + 1]
        return runs
    return _memo(trace, ("fetch_runs", inst_bytes, line_size), build)
