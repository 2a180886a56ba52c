"""Unit and property tests for the shared event calendar (and the
issue-select discipline built on top of it).

:mod:`repro.pipeline.eventq` is the readable specification of the
wheel/heap idioms both columnar kernels open-code; these tests pin the
contract the kernels rely on:

* a near event drains exactly at its due cycle, including across
  64-cycle wheel wraps;
* far events are promoted out of the heap the moment their cycle comes
  due, never earlier;
* staleness is the caller's stamp — a squash never removes entries, it
  re-stamps the seq, and the stale entry surfaces (and is discardable)
  at the slot's next visit;
* an idle fast-forward bounded by the wake horizon never jumps a live
  entry — the slot still holds it when the clock lands on its cycle.

The last test class pins the gen-2 OOO kernel's *issue-select
discipline*: a single ascending ready queue with a dead-region head
pointer, mid-deletes only for port-starved skips, and ``insort`` above
the head must select exactly the seqs an oldest-first scalar scan with
the same port budgets would — in the same order — under arbitrary
arrival/budget interleavings (``docs/architecture.md`` §13).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.pipeline import WHEEL, EventCalendar
from repro.pipeline.eventq import WHEEL_MASK


class TestWheel:
    def test_near_event_drains_exactly_at_due_cycle(self):
        cal = EventCalendar()
        cal.schedule(7, now=3, entry=(7, "x"))
        for now in range(4, 7):
            assert cal.pop_due(now) == []
        assert cal.pop_due(7) == [(7, "x")]
        assert len(cal) == 0

    def test_wrap_lands_in_same_slot_different_era(self):
        # 60 -> 75 crosses the wheel origin; the slot index wraps but
        # the entry still surfaces exactly at 75.
        cal = EventCalendar()
        cal.schedule(75, now=60, entry=(75,))
        assert cal.slot(75 - WHEEL) == cal.wheel[75 & WHEEL_MASK]
        for now in range(61, 75):
            assert cal.pop_due(now) == []
        assert cal.pop_due(75) == [(75,)]

    def test_same_cycle_entries_keep_insertion_order(self):
        cal = EventCalendar()
        cal.schedule(9, now=8, entry=("a",))
        cal.schedule(9, now=8, entry=("b",))
        assert cal.pop_due(9) == [("a",), ("b",)]

    def test_horizon_boundary(self):
        # time - now == WHEEL - 1 is the last wheel-resident distance;
        # WHEEL goes to the heap.
        cal = EventCalendar()
        cal.schedule(WHEEL - 1, now=0, entry=(WHEEL - 1,))
        cal.schedule(WHEEL, now=0, entry=(WHEEL,))
        assert len(cal.heap) == 1
        assert cal.earliest_far() == WHEEL


class TestFarHeap:
    def test_promoted_exactly_when_due(self):
        cal = EventCalendar()
        cal.schedule(200, now=0, entry=(200, "fill"))
        assert cal.pop_due(199) == []
        assert cal.pop_due(200) == [(200, "fill")]
        assert cal.earliest_far() is None

    def test_pop_due_orders_wheel_before_heap(self):
        cal = EventCalendar()
        cal.schedule(100, now=0, entry=(100, "far"))
        cal.schedule(100, now=90, entry=("near",))
        assert cal.pop_due(100) == [("near",), (100, "far")]

    def test_late_visit_drains_every_overdue_far_event(self):
        # A fast-forwarding caller may first visit the heap cycles
        # after several far events came due; all of them surface.
        cal = EventCalendar()
        for t in (70, 80, 90):
            cal.schedule(t, now=0, entry=(t,))
        assert cal.pop_due(85) == [(70,), (80,)]
        assert cal.earliest_far() == 90


class TestStaleness:
    def test_squash_restamp_discards_at_drain(self):
        # The OOO kernel's squash protocol: bump the seq's generation,
        # leave the old entry in place.  The calendar surfaces both
        # eras; the caller's stamp check keeps exactly the live one.
        cal = EventCalendar()
        gen = 0
        cal.schedule(10, now=5, entry=(4, gen))
        gen += 1                          # squash seq 4
        cal.schedule(12, now=6, entry=(4, gen))      # reissue
        stale = [e for e in cal.pop_due(10) if e[1] == gen]
        assert stale == []                # old-era entry discarded
        live = [e for e in cal.pop_due(12) if e[1] == gen]
        assert live == [(4, 1)]

    def test_stale_entry_jumped_by_wrap_still_discardable(self):
        # Only stale entries may be jumped by a skip; when the slot
        # next comes around (one wrap later) the entry is still there
        # and still identifiably stale.
        cal = EventCalendar()
        cal.schedule(10, now=5, entry=(4, 0))
        # skip straight past cycle 10 without visiting the slot...
        assert cal.slot(10 + WHEEL) is cal.slot(10)
        assert cal.slot(10 + WHEEL) == [(4, 0)]     # ...it survives

    def test_clear_empties_everything(self):
        cal = EventCalendar()
        cal.schedule(3, now=0, entry=(3,))
        cal.schedule(500, now=0, entry=(500,))
        assert len(cal) == 2
        cal.clear()
        assert len(cal) == 0
        assert cal.earliest_far() is None


class TestIdleSkipInteraction:
    def test_skip_bounded_by_wake_horizon_never_jumps_live_entry(self):
        # An idle span fast-forwards from ``now`` to the earliest
        # in-flight completion (the wake horizon).  Every live entry
        # was inserted < WHEEL cycles before it fires, so landing the
        # clock exactly on the horizon finds the entry in its slot.
        cal = EventCalendar()
        now = 100
        wake = now + WHEEL - 1            # worst-case near distance
        cal.schedule(wake, now, entry=(wake, "wake"))
        # the skip visits no intermediate slot; the landing visit
        # drains the event exactly once
        assert cal.pop_due(wake) == [(wake, "wake")]
        assert cal.pop_due(wake + WHEEL) == []

    def test_far_event_caps_the_skip(self):
        # A skip past the wheel horizon consults earliest_far(); the
        # promoted entry then bounds the landing cycle.
        cal = EventCalendar()
        cal.schedule(300, now=0, entry=(300, "fill"))
        horizon = cal.earliest_far()
        assert horizon == 300
        assert cal.pop_due(horizon) == [(300, "fill")]


@st.composite
def schedules(draw):
    """(insert_cycle, due_cycle) pairs with kernel-shaped distances."""
    events = []
    now = 0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        now += draw(st.integers(min_value=0, max_value=10))
        delay = draw(st.integers(min_value=1, max_value=200))
        events.append((now, now + delay))
    return events


class TestCalendarProperties:
    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_every_entry_drains_exactly_at_its_due_cycle(self, events):
        cal = EventCalendar()
        pending = {}
        drained = {}
        horizon = max(due for _, due in events)
        inserts = iter(sorted(events))
        nxt = next(inserts, None)
        for now in range(0, horizon + 1):
            while nxt is not None and nxt[0] == now:
                key = len(drained) + len(pending)
                cal.schedule(nxt[1], now, entry=(nxt[1], key))
                pending[key] = nxt[1]
                nxt = next(inserts, None)
            for due, key in cal.pop_due(now):
                assert due == now, "entry drained off its cycle"
                assert pending.pop(key) == now
                drained[key] = now
        assert not pending, "entries never drained"
        assert len(cal) == 0


# ---------------------------------------------------------------------------
# Issue-select discipline: head-pointer ready queue vs oldest-first scan
# ---------------------------------------------------------------------------

#: Port classes as in repro.isa.trace.PORT_CODE: MEM, ALU, FP, BR,
#: slot-only.
CODES = (0, 1, 2, 3, 4)


def _scalar_select(ready, codes, budgets, width, wlimit):
    """Oldest-first scalar reference: scan every ready seq ascending."""
    m_ports, i_ports, f_ports, b_ports = budgets
    m = i = f = b = 0
    picked = []
    for seq in sorted(ready):
        if seq > wlimit:
            break
        code = codes[seq]
        if code == 1:
            if i < i_ports:
                i += 1
            elif m < m_ports:
                m += 1
            else:
                continue
        elif code == 0:
            if m >= m_ports:
                continue
            m += 1
        elif code == 2:
            if f >= f_ports:
                continue
            f += 1
        elif code == 3:
            if b >= b_ports:
                continue
            b += 1
        picked.append(seq)
        if len(picked) >= width:
            break
    return picked


def _queue_select(rdy, hr, codes, budgets, width, wlimit):
    """The gen-2 kernel's queue discipline, verbatim shape.

    ``rdy[hr:]`` is the live ascending region; issued entries advance
    the head when they sit at it and are mid-deleted when a
    port-starved entry was skipped below the scan point.  Returns the
    picked seqs and the new head.
    """
    m_ports, i_ports, f_ports, b_ports = budgets
    m = i_used = f = b = 0
    picked = []
    i = hr
    rlen = len(rdy)
    while i < rlen:
        seq = rdy[i]
        if seq > wlimit:
            break
        code = codes[seq]
        if code == 1:
            if i_used < i_ports:
                i_used += 1
            elif m < m_ports:
                m += 1
            else:
                i += 1
                continue
        elif code == 0:
            if m < m_ports:
                m += 1
            else:
                i += 1
                continue
        elif code == 2:
            if f < f_ports:
                f += 1
            else:
                i += 1
                continue
        elif code == 3:
            if b < b_ports:
                b += 1
            else:
                i += 1
                continue
        if i == hr:
            i = hr = hr + 1
        else:
            del rdy[i]
            rlen -= 1
        picked.append(seq)
        if len(picked) >= width:
            break
    # compaction, as in the kernel
    if hr:
        if hr == rlen:
            del rdy[:]
            hr = 0
        elif hr > 32:
            del rdy[:hr]
            hr = 0
    return picked, hr


@st.composite
def issue_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    codes = draw(st.lists(st.sampled_from(CODES), min_size=n, max_size=n))
    # per-cycle arrival batches partition 0..n-1 in ascending order
    # (dispatch order); wake-ups out of seq order are injected below.
    arrivals = []
    seq = 0
    while seq < n:
        k = draw(st.integers(min_value=0, max_value=6))
        arrivals.append(list(range(seq, min(seq + k, n))))
        seq = min(seq + k, n) if k else seq
        if not k:
            arrivals.append([])
            if len(arrivals) > 4 * n + 8:
                break
    budgets = (draw(st.integers(min_value=1, max_value=3)),
               draw(st.integers(min_value=1, max_value=3)),
               draw(st.integers(min_value=1, max_value=2)),
               draw(st.integers(min_value=1, max_value=2)))
    width = draw(st.integers(min_value=1, max_value=6))
    return codes, arrivals, budgets, width


class TestIssueSelectOrder:
    @given(issue_scenarios(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_queue_matches_scalar_oldest_first(self, scenario, rng):
        codes, arrivals, budgets, width = scenario
        from bisect import insort

        rdy = []
        hr = 0
        ready_set = set()
        deferred = []           # woken later, possibly below queue max
        for batch in arrivals:
            # wake a random stashed seq "out of order" (a consumer
            # whose producer just fired): insort above the head, which
            # must keep the live region sorted even when the dead
            # region below the head is not.
            if deferred and rng.random() < 0.5:
                seq = deferred.pop(rng.randrange(len(deferred)))
                insort(rdy, seq, hr)
                ready_set.add(seq)
            for seq in batch:
                if rng.random() < 0.3:
                    deferred.append(seq)    # not ready yet
                else:
                    rdy.append(seq)         # dispatch-ready: append
                    ready_set.add(seq)
            wlimit = (min(ready_set) + rng.randrange(0, 64)
                      if ready_set and rng.random() < 0.3 else 1 << 60)
            expect = _scalar_select(ready_set, codes, budgets, width,
                                    wlimit)
            got, hr = _queue_select(rdy, hr, codes, budgets, width,
                                    wlimit)
            assert got == expect, (
                "queue discipline diverged from the oldest-first "
                f"scalar scan: {got} != {expect}")
            ready_set.difference_update(got)
        # wake every deferred seq and drain with unbounded budgets:
        # every survivor must come out oldest-first, width at a time.
        for seq in deferred:
            insort(rdy, seq, hr)
            ready_set.add(seq)
        while ready_set:
            expect = sorted(ready_set)[:9]
            got, hr = _queue_select(rdy, hr, codes, (9, 9, 9, 9), 9,
                                    1 << 60)
            assert got == expect
            ready_set.difference_update(got)
