"""A small deterministic discrete-event simulation (DES) kernel.

This is the clock under the simulated Blue Gene/P: the DES replay
(:mod:`repro.core.simrun`) drives every rank, worker thread and torus
transfer of the performance plane as callback chains on its fast path.
The kernel is intentionally minimal — a two-level event queue (a FIFO
for the current time, a binary heap for the future) plus generator-based
processes (the SimPy execution model) — because determinism and
debuggability matter more here than feature breadth.

Key concepts
------------

``Simulator``
    owns the clock and the event queue; ``run()`` drains it.
    ``call_at``/``call_soon`` schedule bare callbacks (the replay's path).
``Event``
    a one-shot occurrence that processes can wait on; carries a value.
``Process``
    a Python generator driven by the simulator.  Yield an :class:`Event`
    (or helper like ``sim.timeout(dt)``) to suspend until it fires.

Example
-------

>>> from repro.des import Simulator
>>> sim = Simulator()
>>> log = []
>>> def proc(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(proc(sim, "b", 2.0))
>>> _ = sim.spawn(proc(sim, "a", 1.0))
>>> sim.run()
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from repro.des.core import (
    Simulator,
    Event,
    Process,
    Interrupt,
    SimulationError,
    AllOf,
    AnyOf,
)

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Interrupt",
    "SimulationError",
    "AllOf",
    "AnyOf",
]
