"""Blue Gene/P partitions and node modes.

A BG/P job runs on a *partition* — a contiguous block of nodes whose shape
is fixed by the machine's wiring.  Two rules matter for the paper:

* Partitions of **512 or more nodes** (a midplane and up) close their X/Y/Z
  dimensions into a **torus**; smaller partitions are an open **mesh**
  (section V of the paper).
* A node runs in one of three modes (section III): **SMP** (one MPI rank,
  up to 4 threads), **DUAL** (two ranks of two hardware threads) and
  **VN** — *virtual node* mode, the paper's "virtual mode" — where the four
  cores appear as four single-threaded MPI ranks with 512 MB each.

Partition shapes follow the real machine's building blocks: a midplane is
an 8x8x8 torus of 512 nodes, a rack stacks two midplanes (8x8x16), and
multi-rack rows extend Y then X.  Sub-midplane partitions halve dimensions
(mesh).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.validation import check_positive_int


class NodeMode(enum.Enum):
    """How the four cores of a node are exposed to the application."""

    #: one MPI rank per node, all four cores available to threads
    SMP = "smp"
    #: two MPI ranks per node, two cores each
    DUAL = "dual"
    #: four MPI ranks per node ("virtual mode" in the paper)
    VN = "vn"

    @property
    def ranks_per_node(self) -> int:
        return {NodeMode.SMP: 1, NodeMode.DUAL: 2, NodeMode.VN: 4}[self]

    @property
    def cores_per_rank(self) -> int:
        return 4 // self.ranks_per_node


#: Known partition shapes, keyed by node count.  Shapes below 512 nodes are
#: meshes (halved midplane dimensions); 512+ are tori built from midplanes.
_PARTITION_SHAPES: dict[int, tuple[int, int, int]] = {
    16: (4, 2, 2),
    32: (4, 4, 2),
    64: (4, 4, 4),
    128: (8, 4, 4),
    256: (8, 8, 4),
    512: (8, 8, 8),       # midplane
    1024: (8, 8, 16),     # rack
    2048: (8, 8, 32),     # row of 2 racks
    4096: (8, 16, 32),    # 4 racks (the paper's machine)
    8192: (16, 16, 32),
    16384: (16, 32, 32),
}


def partition_shape(n_nodes: int) -> tuple[int, int, int]:
    """Return the X,Y,Z node-grid shape of an ``n_nodes`` partition.

    Known BG/P shapes are used when available; other counts get the most
    cubic 3-factorization (useful for small test partitions like 2 or 8
    nodes, which real BG/P would not allocate but our simulator accepts).
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    if n_nodes in _PARTITION_SHAPES:
        return _PARTITION_SHAPES[n_nodes]
    from repro.util.factorize import best_grid_factorization

    return best_grid_factorization(n_nodes, lambda f: max(f) - min(f))


@dataclass(frozen=True)
class Partition:
    """A job's allocation: node-grid shape, topology kind, node mode.

    Ranks fill nodes core first, BG/P's default ``TXYZ`` mapping: ranks
    0..3 share node 0, 4..7 node 1, ...  Which domain runs on which rank
    is the DES replay's placement decision
    (:func:`repro.core.simrun._domain_to_rank`), not the partition's.
    """

    n_nodes: int
    mode: NodeMode = NodeMode.SMP
    torus_min_nodes: int = 512

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Node-grid dimensions (X, Y, Z)."""
        return partition_shape(self.n_nodes)

    @property
    def is_torus(self) -> bool:
        """True if the partition wires into a torus (>= 512 nodes)."""
        return self.n_nodes >= self.torus_min_nodes

    @property
    def n_ranks(self) -> int:
        """Total MPI ranks in this partition under the node mode."""
        return self.n_nodes * self.mode.ranks_per_node

    def node_of_rank(self, rank: int) -> int:
        """Which node hosts ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} outside 0..{self.n_ranks - 1}")
        return rank // self.mode.ranks_per_node

    def core_slot_of_rank(self, rank: int) -> int:
        """Which hardware-thread slot of its node ``rank`` occupies."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} outside 0..{self.n_ranks - 1}")
        return rank % self.mode.ranks_per_node
