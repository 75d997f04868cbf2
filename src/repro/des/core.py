"""Core of the discrete-event kernel: a clock and a two-level queue.

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

An entry is a bare callback: :meth:`Simulator.call_at` /
:meth:`Simulator.call_soon` schedule ``fn(*args)`` with no event object
at all.  The replay engine (:mod:`repro.core.simrun`) builds every rank,
worker thread, MPI lock and torus link as chains of such callbacks.

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
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


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
        #: queue entries fired so far, one per scheduled callback; the
        #: replay goldens pin it per configuration
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, t: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``t``.

        One queue entry; entries at equal times fire in scheduling order.
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

    def run(self) -> float:
        """Drain the event queue; returns the final simulation time.

        Per timestamp: the heap entries of that time fire first, then the
        ready queue (see the module docstring for why that is scheduling
        order).  A callback that raises aborts the run with the clock at
        its timestamp; calling ``run()`` again resumes where it stopped.
        """
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        t = self._now
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
            self._now = t
        self.events_processed += fired
        return self._now
