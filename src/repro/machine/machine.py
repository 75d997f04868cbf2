"""The assembled simulated machine: nodes + torus + tree on one DES clock.

:class:`Machine` is what the simulated MPI layer (:mod:`repro.smpi`) runs
on.  It owns the partition geometry (node-grid shape, mesh vs torus) and
lazily creates node objects, so a 4096-node machine costs nothing until
ranks actually touch nodes.
"""

from __future__ import annotations

from typing import Generator

from typing import TYPE_CHECKING, Optional

from repro.des import Simulator
from repro.des.core import Event
from repro.machine.node import Node
from repro.machine.partition import NodeMode, Partition
from repro.machine.spec import BGP_SPEC, MachineSpec
from repro.machine.torus import TorusNetwork, TorusTopology
from repro.machine.tree import TreeNetwork

if TYPE_CHECKING:
    from repro.obs.spans import SpanTracer


class Machine:
    """A partition of a simulated Blue Gene/P."""

    def __init__(
        self,
        n_nodes: int,
        mode: NodeMode = NodeMode.SMP,
        spec: MachineSpec = BGP_SPEC,
        sim: Simulator | None = None,
        tracer: Optional[SpanTracer] = None,
        mapping: str = "TXYZ",
    ) -> None:
        self.spec = spec
        self.sim = sim if sim is not None else Simulator()
        self.tracer = tracer
        self.partition = Partition(
            n_nodes, mode=mode, torus_min_nodes=spec.torus_min_nodes,
            mapping=mapping,
        )
        self.topology = TorusTopology(
            self.partition.shape, torus=self.partition.is_torus
        )
        self.torus = TorusNetwork(self.sim, self.topology, spec.torus, tracer=tracer)
        self.tree = TreeNetwork(self.sim, spec.tree, n_nodes)
        self._nodes: dict[int, Node] = {}

    # -- structure -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.partition.n_nodes

    @property
    def n_ranks(self) -> int:
        return self.partition.n_ranks

    @property
    def mode(self) -> NodeMode:
        return self.partition.mode

    def node(self, node_id: int) -> Node:
        """The node object for ``node_id`` (created on first use)."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node {node_id} outside 0..{self.n_nodes - 1}")
        nd = self._nodes.get(node_id)
        if nd is None:
            nd = Node(self.sim, node_id, self.spec.node, tracer=self.tracer)
            self._nodes[node_id] = nd
        return nd

    # -- activity -------------------------------------------------------------
    def transfer(
        self, src_node: int, dst_node: int, nbytes: float
    ) -> Generator[Event, object, None]:
        """Process: a DMA-driven torus transfer between two nodes.

        The DMA engine performs the move; no core is held.  Intra-node
        "transfers" degenerate to a memcpy inside
        :meth:`TorusNetwork.transfer`.
        """
        src = self.node(src_node)
        src.dma.begin()
        try:
            yield from self.torus.transfer(src_node, dst_node, nbytes)
        finally:
            src.dma.end()

    def compute(
        self, node_id: int, core: int, seconds: float
    ) -> Generator[Event, object, None]:
        """Process: computation on one core of one node."""
        yield from self.node(node_id).compute(core, seconds)

    def utilization(self, elapsed: float | None = None) -> float:
        """Mean core-busy fraction over the touched nodes."""
        elapsed = self.sim.now if elapsed is None else elapsed
        if elapsed <= 0 or not self._nodes:
            return 0.0
        return sum(nd.utilization(elapsed) for nd in self._nodes.values()) / len(
            self._nodes
        )
