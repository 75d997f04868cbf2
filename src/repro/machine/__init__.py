"""Parameterised hardware model of a Blue Gene/P installation.

Everything the paper's evaluation depends on is a number in
:class:`~repro.machine.spec.MachineSpec` (Table I of the paper) or a rule in
this package:

* :mod:`repro.machine.spec` — node and network constants (Table I),
  including the torus latency-bandwidth model and the collective tree
  timing model.
* :mod:`repro.machine.partition` — partition shapes and the mesh-vs-torus
  rule (torus topology only for partitions of >= 512 nodes), plus the three
  node modes (SMP / DUAL / VN a.k.a. "virtual mode").
* :mod:`repro.machine.torus` — the 3D torus geometry with dimension-ordered
  routing.
* :mod:`repro.machine.machine` — ties spec, partition, topology and one
  DES clock into the `Machine` the replay (:mod:`repro.core.simrun`) runs
  on.
"""

from repro.machine.spec import (
    BGP_SPEC,
    CoreSpec,
    MachineSpec,
    NodeSpec,
    TorusSpec,
    TreeSpec,
    table1_rows,
)
from repro.machine.partition import (
    NodeMode,
    Partition,
    partition_shape,
)
from repro.machine.torus import TorusTopology
from repro.machine.machine import Machine

__all__ = [
    "BGP_SPEC",
    "CoreSpec",
    "MachineSpec",
    "NodeSpec",
    "TorusSpec",
    "TreeSpec",
    "table1_rows",
    "NodeMode",
    "Partition",
    "partition_shape",
    "TorusTopology",
    "Machine",
]
