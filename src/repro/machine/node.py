"""A compute node: four cores and a DMA engine.

Cores are capacity-1 DES resources: a simulated thread *computes* by
holding a core for the kernel duration.  The DMA engine moves torus
messages without core involvement (the key hardware property behind the
paper's latency-hiding: non-blocking MPI progresses asynchronously), so
non-blocking transfers never hold a core here — the DMA object only counts
concurrent transfers for introspection.
"""

from __future__ import annotations

from typing import Generator

from typing import TYPE_CHECKING, Optional

from repro.des import Resource, Simulator
from repro.des.core import Event
from repro.machine.spec import NodeSpec

if TYPE_CHECKING:
    from repro.obs.spans import SpanTracer


class DmaEngine:
    """Bookkeeping for in-flight DMA transfers of one node."""

    def __init__(self) -> None:
        self.in_flight = 0
        self.completed = 0

    def begin(self) -> None:
        self.in_flight += 1

    def end(self) -> None:
        if self.in_flight <= 0:
            raise RuntimeError("DMA end() without matching begin()")
        self.in_flight -= 1
        self.completed += 1


class Node:
    """One BG/P node inside the DES machine."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        spec: NodeSpec,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        self.tracer = tracer
        self.cores = [
            Resource(sim, capacity=1, name=f"node{node_id}.core{c}")
            for c in range(spec.n_cores)
        ]
        self.dma = DmaEngine()
        #: cumulative busy seconds per core (for utilization reporting)
        self.core_busy: list[float] = [0.0] * spec.n_cores

    def compute(self, core: int, seconds: float) -> Generator[Event, object, None]:
        """Process: occupy ``core`` for ``seconds`` of computation."""
        if not 0 <= core < self.spec.n_cores:
            raise ValueError(f"core {core} outside 0..{self.spec.n_cores - 1}")
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        yield self.cores[core].acquire()
        start = self.sim.now
        try:
            yield self.sim.timeout(seconds)
        finally:
            self.cores[core].release()
        self.core_busy[core] += seconds
        if self.tracer is not None:
            self.tracer.record(
                f"node{self.node_id}.core{core}", start, self.sim.now, "compute"
            )

    def utilization(self, elapsed: float) -> float:
        """Mean busy fraction of the node's cores over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return sum(self.core_busy) / (self.spec.n_cores * elapsed)
