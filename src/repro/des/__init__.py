"""A small deterministic discrete-event simulation (DES) kernel.

This is the substrate under the simulated Blue Gene/P: the torus links,
DMA engines, MPI ranks and worker threads of the performance plane are all
DES processes.  The kernel is intentionally minimal — a two-level event
queue (a FIFO for the current time, a binary heap for the future) plus
generator-based processes (the SimPy execution model) — because
determinism and debuggability matter more here than feature breadth.

Key concepts
------------

``Simulator``
    owns the clock and the event queue; ``run()`` drains it.
``Event``
    a one-shot occurrence that processes can wait on; carries a value.
``Process``
    a Python generator driven by the simulator.  Yield an :class:`Event`
    (or helper like ``sim.timeout(dt)``) to suspend until it fires.
``Resource``
    a counted FIFO resource (used for link/DMA contention).
``Store``
    an unbounded FIFO of items with blocking ``get`` (used for mailboxes).

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
from repro.des.resources import Resource, Store

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Interrupt",
    "SimulationError",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
]
