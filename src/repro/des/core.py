"""Core of the discrete-event kernel: clock, events, processes.

Execution model
---------------

The simulator keeps a **two-level queue**.  Entries for a strictly
future time live in a heap of ``(time, sequence, fn, args)`` tuples; the
``sequence`` counter makes the ordering of simultaneous entries
deterministic (FIFO in scheduling order) — essential for reproducible
message traces — and, being unique, keeps the heap from ever comparing
``fn``/``args``.  Entries for the *current* time — every ``call_soon``,
and ``call_at(t)`` with ``t == now`` — skip the heap: they are appended
to a FIFO ready queue of ``(fn, args)`` pairs.  Zero-delay hops are the
large majority of a replay's entries, so most of them never pay a heap
push and pop.

Two layers share that queue:

* the **callback fast path** — :meth:`Simulator.call_at` /
  :meth:`Simulator.call_soon` schedule a bare ``fn(*args)`` with no event
  object at all.  The compiled replay engine
  (:mod:`repro.core.simrun_compiled`) runs entirely on this layer.
* the **event layer** — :class:`Event`, :class:`Timeout`, :class:`Process`
  build condition variables and coroutine processes on top of the same
  primitives.  A :class:`Process` wraps a generator; each ``yield`` must
  produce an :class:`Event`, and the process is resumed with the event's
  value when it fires.  If the yielded event failed, the exception is
  thrown into the generator so processes can use ordinary ``try/except``.

Both layers interleave on one total order — by time, then by scheduling
order — so a callback-layer reimplementation of an event-layer program
can reproduce its schedule bit-for-bit by issuing the same number of
hops.

The run loop works one timestamp at a time: it stores the clock once,
fires the heap entries of that time in sequence order, then drains the
ready queue first in first out, including whatever the firing callbacks
append to it, and only then advances.  Every heap entry of a timestamp
was scheduled before the clock reached it and every ready entry after,
so this is the order a single ``(time, sequence)`` heap would give.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* exactly once, either with a
    value (:meth:`succeed`) or with an exception (:meth:`fail`).  Processes
    (and other callbacks) registered before the trigger run at the trigger
    time; callbacks added after the trigger run immediately.
    """

    __slots__ = ("sim", "_value", "_ok", "callbacks", "_name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._name = name

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has fired (successfully or not)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event fired successfully. Undefined before firing."""
        if not self.triggered:
            raise SimulationError(f"event {self!r} has not fired yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value the event fired with (or its exception)."""
        if not self.triggered:
            raise SimulationError(f"event {self!r} has not fired yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, scheduling its callbacks now."""
        self._trigger(value, ok=True)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event with an exception."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(exc, ok=False)
        return self

    def _trigger(self, value: Any, ok: bool) -> None:
        if self.triggered:
            raise SimulationError(f"event {self!r} fired twice")
        self._value = value
        self._ok = ok
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            self.sim.call_soon(cb, self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event fires (immediately if already fired)."""
        if self.callbacks is None:
            self.sim.call_soon(cb, self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        label = f" {self._name!r}" if self._name else ""
        return f"<Event{label} {state}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim, name="timeout")
        sim.call_at(sim.now + delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self.succeed(value)


class AllOf(Event):
    """Fires when *all* of the given events have fired successfully.

    Its value is the list of the constituent events' values, in input order.
    Fails with the first failure observed.
    """

    __slots__ = ("_remaining", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Fires when *any* of the given events fires; value is ``(index, value)``."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(self._events):
            ev.add_callback(lambda e, i=i: self._on_child(i, e))

    def _on_child(self, index: int, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
        else:
            self.succeed((index, ev.value))


class Process(Event):
    """A generator driven by the simulator.

    The process *is* an event: it fires with the generator's return value
    when the generator finishes, so processes can wait on each other simply
    by yielding the :class:`Process` object.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {gen!r}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        # Start the process at the current simulation time.
        sim.call_soon(self._resume, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        self._waiting_on = None  # the interrupted wait is abandoned
        self.sim.call_soon(self._throw, Interrupt(cause))

    # -- driving ---------------------------------------------------------
    def _resume(self, ev: Optional[Event]) -> None:
        if self.triggered:
            return
        if ev is not None and self._waiting_on is not ev:
            return  # stale wake-up from an abandoned (interrupted) wait
        if ev is not None and not ev.ok:
            self._throw(ev.value)
            return
        value = None if ev is None else ev.value
        self._step(lambda: self._gen.send(value))

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._step(lambda: self._gen.throw(exc))

    def _step(self, advance: Callable[[], Event]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self._waiting_on = None
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process abnormally.
            self._waiting_on = None
            self.fail(exc)
            return
        except Exception as exc:
            self._waiting_on = None
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self._name!r} yielded {target!r}; "
                    "processes must yield Event instances"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class Simulator:
    """Two-level event queue + clock.  All simulation state hangs off one instance."""

    def __init__(self) -> None:
        self._now = 0.0
        #: strictly future entries, ordered by ``(time, sequence)``
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        #: ``(fn, args)`` entries scheduled for the current time, in
        #: scheduling order
        self._ready: deque[tuple[Callable[..., None], tuple]] = deque()
        #: queue entries fired so far — one per scheduled callback, whether
        #: it came from the event layer or the fast path; engine
        #: equivalence tests assert this matches between engines
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling primitives -------------------------------------------
    def call_at(self, t: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``t`` (fast path).

        One queue entry, no event object; entries at equal times fire in
        scheduling order.
        """
        now = self._now
        if t > now:
            self._seq += 1
            heapq.heappush(self._heap, (t, self._seq, fn, args))
        elif t == now:
            # a heap entry at ``now`` would overtake older ready entries
            self._ready.append((fn, args))
        else:
            raise SimulationError(f"cannot schedule into the past ({t} < {now})")

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current time (after pending callbacks)."""
        self._ready.append((fn, args))

    # -- public API --------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def spawn(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process from a generator; returns its Process event."""
        return Process(self, gen, name=name)

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue; returns the final simulation time.

        With ``until``, stops once the next event would be strictly later
        than ``until`` and fast-forwards the clock to exactly ``until``;
        an ``until`` in the past with entries still pending raises
        :class:`SimulationError`.

        Per timestamp: the heap entries of that time fire first, then the
        ready queue (see the module docstring for why that is scheduling
        order).
        """
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        t = self._now
        if until is not None and until < t and (heap or ready):
            raise SimulationError(f"cannot run until the past ({until} < {t})")
        fired = 0
        while True:
            # on entry ``t`` is ``now``: its heap entries are what a
            # raising callback left behind, and still precede the ready ones
            while heap and heap[0][0] == t:
                entry = pop(heap)
                fired += 1
                entry[2](*entry[3])
            while ready:
                fn, args = popleft()
                fired += 1
                fn(*args)
            if not heap:
                break
            t = heap[0][0]
            if until is not None and t > until:
                break
            self._now = t
        if until is not None and until > self._now:
            self._now = until
        self.events_processed += fired
        return self._now

    def run_process(self, gen: Generator[Event, Any, Any], name: str = "") -> Any:
        """Spawn ``gen``, run to completion, and return its result.

        Raises the process's exception if it failed — the convenient entry
        point for request/response style simulations (e.g. one ping-pong).
        """
        proc = self.spawn(gen, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {name or gen!r} never finished (deadlock: "
                "event queue drained while the process still waits)"
            )
        if not proc.ok:
            raise proc.value
        return proc.value
