"""Tests for the discrete-event kernel (repro.des.core)."""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.des import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)
from repro.des.core import Timeout


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc()) == 2.5


def test_zero_timeout_runs_at_current_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []

    def proc(name, delay):
        yield sim.timeout(delay)
        log.append(name)

    sim.spawn(proc("late", 3.0))
    sim.spawn(proc("early", 1.0))
    sim.spawn(proc("mid", 2.0))
    sim.run()
    assert log == ["early", "mid", "late"]


def test_simultaneous_events_fifo_deterministic():
    sim = Simulator()
    log = []

    def proc(name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abcde":
        sim.spawn(proc(name))
    sim.run()
    assert log == list("abcde")


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(True)

    sim.spawn(proc())
    assert sim.run(until=5.0) == 5.0
    assert not fired
    assert sim.run() == 10.0
    assert fired


def test_run_until_past_last_event_fast_forwards():
    sim = Simulator()
    assert sim.run(until=42.0) == 42.0
    assert sim.now == 42.0


def test_run_until_the_past_with_pending_entries_raises():
    sim = Simulator()
    log = []
    sim.call_at(5.0, log.append, 5)
    sim.call_at(9.0, log.append, 9)
    assert sim.run(until=6.0) == 6.0
    with pytest.raises(SimulationError, match="past"):
        sim.run(until=2.0)
    assert sim.now == 6.0
    assert sim.run() == 9.0
    assert log == [5, 9]
    # nothing pending: a stale horizon is a no-op, the clock never goes back
    assert sim.run(until=2.0) == 9.0


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


def test_event_value_passes_through_yield():
    sim = Simulator()
    ev = sim.event()

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed("payload")

    def waiter():
        got = yield ev
        return got

    sim.spawn(trigger())
    assert sim.run_process(waiter()) == "payload"


def test_event_fires_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_callback_after_trigger_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [7]


def test_failed_event_raises_in_process():
    sim = Simulator()
    ev = sim.event()

    def failer():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught {exc}"

    sim.spawn(failer())
    assert sim.run_process(waiter()) == "caught boom"


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_process_exception_propagates_via_run_process():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("inside process")

    with pytest.raises(ValueError, match="inside process"):
        sim.run_process(bad())


def test_process_is_waitable_event():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "child result"

    def parent():
        result = yield sim.spawn(child())
        return (sim.now, result)

    assert sim.run_process(parent()) == (2.0, "child result")


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    proc = sim.spawn(bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_deadlock_detected_by_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


class TestAllOf:
    def test_waits_for_all(self):
        sim = Simulator()

        def proc():
            evs = [sim.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
            values = yield sim.all_of(evs)
            return (sim.now, values)

        t, values = sim.run_process(proc())
        assert t == 3.0
        assert values == [3.0, 1.0, 2.0]  # input order preserved

    def test_empty_fires_immediately(self):
        sim = Simulator()
        ev = AllOf(sim, [])
        assert ev.triggered and ev.value == []

    def test_failure_propagates(self):
        sim = Simulator()
        bad = sim.event()

        def proc():
            yield sim.all_of([sim.timeout(1.0), bad])

        def failer():
            yield sim.timeout(0.5)
            bad.fail(RuntimeError("nope"))

        sim.spawn(failer())
        with pytest.raises(RuntimeError, match="nope"):
            sim.run_process(proc())


class TestAnyOf:
    def test_first_wins(self):
        sim = Simulator()

        def proc():
            evs = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
            index, value = yield sim.any_of(evs)
            return (sim.now, index, value)

        assert sim.run_process(proc()) == (1.0, 1, "fast")

    def test_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AnyOf(sim, [])


class TestInterrupt:
    def test_interrupt_is_catchable(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                return ("interrupted", sim.now, intr.cause)

        def interrupter(proc):
            yield sim.timeout(1.0)
            proc.interrupt("wake up")

        proc = sim.spawn(sleeper())
        sim.spawn(interrupter(proc))
        sim.run()
        assert proc.value == ("interrupted", 1.0, "wake up")

    def test_uncaught_interrupt_fails_process(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        proc = sim.spawn(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.spawn(interrupter())
        sim.run()
        assert proc.triggered and not proc.ok
        assert isinstance(proc.value, Interrupt)

    def test_interrupting_finished_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.0)

        proc = sim.spawn(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_stale_wakeup_after_interrupt_ignored(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(5.0)
                log.append("timeout fired in process")
            except Interrupt:
                yield sim.timeout(10.0)
                log.append("post-interrupt sleep done")

        proc = sim.spawn(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.spawn(interrupter())
        sim.run()
        # The original 5.0s timeout still fires at t=5, but must not resume
        # the process (which is now sleeping until t=11).
        assert log == ["post-interrupt sleep done"]
        assert sim.now == 11.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_property_processes_complete_in_sorted_order(delays):
    sim = Simulator()
    completions = []

    def proc(i, d):
        yield sim.timeout(d)
        completions.append((sim.now, i))

    for i, d in enumerate(delays):
        sim.spawn(proc(i, d))
    sim.run()
    times = [t for t, _ in completions]
    assert times == sorted(times)
    assert len(completions) == len(delays)
    assert sim.now == max(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                  st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        min_size=1,
        max_size=20,
    )
)
def test_property_sequential_timeouts_accumulate(pairs):
    sim = Simulator()

    def proc(a, b):
        yield sim.timeout(a)
        yield sim.timeout(b)
        return sim.now

    # Processes run concurrently; each finishes at its own a+b.
    procs = [sim.spawn(proc(a, b)) for a, b in pairs]
    sim.run()
    for (a, b), p in zip(pairs, procs):
        assert p.value == pytest.approx(a + b)


class _OneHeapSimulator:
    """Reference model: every entry on one ``(time, seq)`` heap, popped one
    at a time.  Offers what the event layer uses of :class:`Simulator`."""

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

    def run(self, until=None):
        while self._heap and (until is None or self._heap[0][0] <= until):
            self.now, _, fn, args = heapq.heappop(self._heap)
            self.events_processed += 1
            fn(*args)
        if until is not None and until > self.now:
            self.now = until
        return self.now


# an op is ((kind, delay), ops issued when its callback fires); delays are
# few and exact in binary so that timestamps collide
_KINDS = ("future", "now", "soon", "timeout", "succeed")
_HEADS = st.tuples(st.sampled_from(_KINDS), st.sampled_from((0.0, 0.5, 1.0, 1.5)))
_OP = st.recursive(
    st.tuples(_HEADS, st.just(())),
    lambda kids: st.tuples(_HEADS, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=20,
)


def _play(sim, program, cut, late):
    """Issue ``program`` at t=0, run to ``cut``, issue ``late``, run out."""
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
        elif kind == "timeout":
            Timeout(sim, delay).add_callback(fire)
        else:
            ev = Event(sim)
            ev.add_callback(fire)
            sim.call_at(sim.now + delay, ev.succeed)

    for i, op in enumerate(program):
        issue(op, ("program", i))
    assert sim.run(until=cut) == cut
    for i, op in enumerate(late):
        issue(op, ("late", i))
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
