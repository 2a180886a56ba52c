"""Model- and machine-dependent data derived from a trace.

The per-seq columns every core reads live on the
:class:`~repro.isa.trace.Trace` itself.  This module holds what a trace
alone does not determine — data that depends on the timing model's
rename discipline or on the machine's I-cache geometry — as functions
of the trace, memoized in ``trace.derived`` so a whole model sweep
shares one build:

* :func:`dependences` — the static dependence graph in CSR form
  (``prod_off``/``prod_seq`` and ``cons_off``/``cons_seq``) for one
  rename discipline, and :func:`issue_kind`, the OOO kernel's packed
  issue-path flags over it;
* :func:`fetch_lines` / :func:`fetch_runs` — per-seq I-cache lines and
  same-line run ends for one geometry;
* :func:`event_pairs` — the OOO kernel's prebuilt wheel entries.

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

from typing import TYPE_CHECKING, Callable, List, Tuple, TypeVar

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
    """Static producer/consumer CSR arrays for one rename discipline.

    ``prod_seq[prod_off[i]:prod_off[i + 1]]`` lists the in-trace
    producers of seq ``i`` — the last prior writer of each of its source
    registers — deduplicated, in first-occurrence source order.  The
    transpose, ``cons_seq[cons_off[p]:cons_off[p + 1]]``, lists every
    seq that names ``p`` as a producer, in ascending seq order.

    ``merged_dests=True`` reproduces the conventional-predication rename
    rule (no predicate renaming): a predicated instruction additionally
    depends on the prior writers of its *static* destinations, and its
    static destinations (rather than the dynamically written ones)
    become the new last-writers.
    """

    __slots__ = ("merged_dests", "prod_off", "prod_seq",
                 "cons_off", "cons_seq", "_prod_tuples", "_cons_tuples")

    def __init__(self, trace: "Trace", merged_dests: bool):
        self.merged_dests = merged_dests
        n = len(trace)
        d_srcs = trace.srcs
        d_dests = trace.dests
        d_sdests = trace.static_dests
        d_pred = trace.is_predicated

        last_writer = [-1] * NUM_REGS
        prod_off = [0] * (n + 1)
        prod_seq: List[int] = []
        append = prod_seq.append
        for seq in range(n):
            base = len(prod_seq)
            for src in d_srcs[seq]:
                p = last_writer[src]
                if p >= 0:
                    k = base
                    top = len(prod_seq)
                    while k < top and prod_seq[k] != p:
                        k += 1
                    if k == top:
                        append(p)
            if merged_dests and d_pred[seq]:
                dest_iter = d_sdests[seq]
                for dest in dest_iter:
                    p = last_writer[dest]
                    if p >= 0:
                        k = base
                        top = len(prod_seq)
                        while k < top and prod_seq[k] != p:
                            k += 1
                        if k == top:
                            append(p)
            else:
                dest_iter = d_dests[seq]
            for dest in dest_iter:
                last_writer[dest] = seq
            prod_off[seq + 1] = len(prod_seq)
        self.prod_off = prod_off
        self.prod_seq = prod_seq

        # Transpose to consumer lists (counting sort keeps seq order).
        counts = [0] * (n + 1)
        for p in prod_seq:
            counts[p + 1] += 1
        for i in range(1, n + 1):
            counts[i] += counts[i - 1]
        cons_off = list(counts)
        cons_seq = [0] * len(prod_seq)
        cursor = list(counts)
        for seq in range(n):
            for k in range(prod_off[seq], prod_off[seq + 1]):
                p = prod_seq[k]
                cons_seq[cursor[p]] = seq
                cursor[p] += 1
        self.cons_off = cons_off
        self.cons_seq = cons_seq
        self._prod_tuples = None
        self._cons_tuples = None

    def prod_tuples(self) -> List[Tuple[int, ...]]:
        """Per-seq producer tuples (CSR rows materialized, cached)."""
        tuples = self._prod_tuples
        if tuples is None:
            off = self.prod_off
            seqs = self.prod_seq
            tuples = [tuple(seqs[off[i]:off[i + 1]])
                      for i in range(len(off) - 1)]
            self._prod_tuples = tuples
        return tuples

    def cons_tuples(self) -> List[Tuple[int, ...]]:
        """Per-seq consumer tuples (CSR rows materialized, cached)."""
        tuples = self._cons_tuples
        if tuples is None:
            off = self.cons_off
            seqs = self.cons_seq
            tuples = [tuple(seqs[off[i]:off[i + 1]])
                      for i in range(len(off) - 1)]
            self._cons_tuples = tuples
        return tuples

    def producers(self, seq: int) -> Tuple[int, ...]:
        """The producer seqs of ``seq`` (convenience, not hot-path)."""
        return tuple(self.prod_seq[self.prod_off[seq]:
                                   self.prod_off[seq + 1]])


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


def issue_kind(trace: "Trace", merged_dests: bool = False) -> bytes:
    """Packed per-seq issue-path flags for the OOO kernel.

    Bit 0: memory-executing, bit 1: branch, bit 2: has static consumers
    under the given rename discipline.  One subscript in the issue tail
    replaces three flag-column probes (and the common
    plain-ALU-with-consumers shape tests as a single byte).
    """
    def build() -> bytes:
        d_mem = trace.mem_exec
        d_branch = trace.is_branch
        off = dependences(trace, merged_dests).cons_off
        return bytes((1 if d_mem[s] else 0)
                     | (2 if d_branch[s] else 0)
                     | (4 if off[s] != off[s + 1] else 0)
                     for s in range(len(trace)))
    return _memo(trace, ("issue_kind", merged_dests), build)


def event_pairs(trace: "Trace") -> List[Tuple[int, int]]:
    """Generation-zero ``(seq, gen)`` wheel entries, one per seq.

    The OOO kernel copies this list and re-points an entry only when a
    squash bumps that seq's generation, so the hot event push appends a
    prebuilt pair instead of building a tuple.
    """
    return _memo(trace, ("event_pairs",),
                 lambda: [(s, 0) for s in range(len(trace))])
