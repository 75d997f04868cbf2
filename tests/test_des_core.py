"""Tests for the discrete-event kernel (repro.des.core)."""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.des import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_call_at_rejects_the_past():
    sim = Simulator()
    sim.call_at(2.0, sim.call_at, 1.0, print)
    with pytest.raises(SimulationError, match="past"):
        sim.run()
    assert sim.now == 2.0


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []
    for name, t in (("late", 3.0), ("early", 1.0), ("mid", 2.0)):
        sim.call_at(t, log.append, name)
    assert sim.run() == 3.0
    assert log == ["early", "mid", "late"]


def test_simultaneous_events_fifo_deterministic():
    sim = Simulator()
    log = []
    for name in "abcde":
        sim.call_at(1.0, log.append, name)
    sim.run()
    assert log == list("abcde")


def test_heap_entries_of_a_timestamp_fire_before_ready_entries_scheduled_during_it():
    sim = Simulator()
    log = []

    def first():
        log.append("first")
        sim.call_soon(log.append, "soon")
        sim.call_at(sim.now, log.append, "at-now")

    sim.call_at(1.0, first)
    sim.call_at(1.0, log.append, "second")
    sim.run()
    assert log == ["first", "second", "soon", "at-now"]
    assert sim.events_processed == 4


def test_run_resumes_a_timestamp_aborted_by_a_raising_callback():
    sim = Simulator()
    log = []

    def boom():
        sim.call_soon(log.append, "soon")
        raise RuntimeError("boom")

    sim.call_at(1.0, boom)
    sim.call_at(1.0, log.append, "heap")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.run() == 1.0
    assert log == ["heap", "soon"]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_property_callbacks_fire_in_sorted_order(delays):
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        sim.call_at(d, lambda i=i: fired.append((sim.now, i)))
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == max(delays)
    assert sim.events_processed == len(delays)


class _OneHeapSimulator:
    """Reference model: every entry on one ``(time, seq)`` heap, popped one
    at a time."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._heap = []
        self._seq = 0

    def call_at(self, t, fn, *args):
        assert t >= self.now
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn, args))

    def call_soon(self, fn, *args):
        self.call_at(self.now, fn, *args)

    def run(self):
        while self._heap:
            self.now, _, fn, args = heapq.heappop(self._heap)
            self.events_processed += 1
            fn(*args)
        return self.now


# an op is ((kind, delay), ops issued when its callback fires); delays are
# few and exact in binary so that timestamps collide.  "hop" is the
# replay's two-entry pattern: a timed entry whose callback defers to the
# ready queue.
_KINDS = ("future", "now", "soon", "hop")
_HEADS = st.tuples(st.sampled_from(_KINDS), st.sampled_from((0.0, 0.5, 1.0, 1.5)))
_OP = st.recursive(
    st.tuples(_HEADS, st.just(())),
    lambda kids: st.tuples(_HEADS, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=20,
)


def _play(sim, program, cut, late):
    """Issue ``program`` at t=0 and ``late`` from a callback at ``cut``."""
    log = []

    def issue(op, label):
        (kind, delay), kids = op

        def fire(*_):
            log.append((label, sim.now))
            for i, kid in enumerate(kids):
                issue(kid, label + (i,))

        if kind == "future":
            sim.call_at(sim.now + delay + 0.5, fire)
        elif kind == "now":
            sim.call_at(sim.now, fire)
        elif kind == "soon":
            sim.call_soon(fire)
        else:
            sim.call_at(sim.now + delay, sim.call_soon, fire)

    def issue_late():
        for i, op in enumerate(late):
            issue(op, ("late", i))

    for i, op in enumerate(program):
        issue(op, ("program", i))
    sim.call_at(cut, issue_late)
    sim.run()
    return log, sim.now, sim.events_processed


@given(
    program=st.lists(_OP, min_size=1, max_size=6),
    cut=st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.5)),
    late=st.lists(_OP, max_size=3),
)
def test_property_two_level_queue_fires_in_one_heap_order(program, cut, late):
    assert _play(Simulator(), program, cut, late) == _play(
        _OneHeapSimulator(), program, cut, late
    )
