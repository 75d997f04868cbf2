"""A small deterministic discrete-event simulation (DES) kernel.

This is the clock under the simulated Blue Gene/P: the DES replay
(:mod:`repro.core.simrun`) drives every rank, worker thread and torus
transfer of the performance plane as callback chains.  The kernel is
intentionally minimal — a two-level event queue (a FIFO for the current
time, a binary heap for the future) of bare callbacks — because
determinism and debuggability matter more here than feature breadth.

Key concepts
------------

``Simulator``
    owns the clock and the event queue.  ``call_at(t, fn, *args)`` and
    ``call_soon(fn, *args)`` schedule a callback; ``run()`` drains the
    queue, firing entries by time and, at equal times, in scheduling
    order.
``SimulationError``
    raised on an inconsistent schedule, such as a ``call_at`` into the
    past.

Example
-------

>>> from repro.des import Simulator
>>> sim = Simulator()
>>> log = []
>>> def arrive(name):
...     log.append((sim.now, name))
>>> sim.call_at(2.0, arrive, "b")
>>> sim.call_at(1.0, arrive, "a")
>>> sim.run()
2.0
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from repro.des.core import Simulator, SimulationError

__all__ = ["Simulator", "SimulationError"]
