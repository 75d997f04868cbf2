"""The assembled simulated machine: spec, partition and torus on one clock.

:class:`Machine` is what the DES replay (:mod:`repro.core.simrun`) runs
on: the hardware constants, the partition geometry (node-grid shape,
mesh vs torus, rank-to-node layout) and the :class:`Simulator` whose
clock the replay advances.  Cores, links and locks are replay state,
created lazily by the replay, so a 4096-node machine costs nothing until
ranks actually touch nodes.
"""

from __future__ import annotations

from repro.des import Simulator
from repro.machine.partition import NodeMode, Partition
from repro.machine.spec import BGP_SPEC, MachineSpec
from repro.machine.torus import TorusTopology


class Machine:
    """A partition of a simulated Blue Gene/P."""

    def __init__(
        self,
        n_nodes: int,
        mode: NodeMode = NodeMode.SMP,
        spec: MachineSpec = BGP_SPEC,
    ) -> None:
        self.spec = spec
        self.sim = Simulator()
        self.partition = Partition(
            n_nodes, mode=mode, torus_min_nodes=spec.torus_min_nodes
        )
        self.topology = TorusTopology(
            self.partition.shape, torus=self.partition.is_torus
        )

    @property
    def n_nodes(self) -> int:
        return self.partition.n_nodes

    @property
    def mode(self) -> NodeMode:
        return self.partition.mode
