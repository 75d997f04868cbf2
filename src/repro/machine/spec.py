"""Hardware constants of a Blue Gene/P node and its networks (Table I).

The defaults (:data:`BGP_SPEC`) encode the paper's Table I plus the two
communication-model parameters calibrated from the paper's own message-size
experiment (Figure 2):

* effective asymptotic single-link bandwidth ``~375 MB/s`` (the figure
  saturates slightly below the 425 MB/s raw link rate), and
* per-message overhead ``~2.7 us``, chosen so that half the asymptotic
  bandwidth is reached near a 10^3-byte message — exactly where Figure 2
  crosses half-bandwidth (the latency-bandwidth model reaches B/2 at
  ``size = overhead * B``).

All specs are frozen dataclasses: a simulation's hardware cannot drift
mid-run, and specs can be used as dict keys for caching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.util.units import GB, GFLOPS, KIB, MB, MHZ, MIB, US, format_bytes, format_rate


@dataclass(frozen=True)
class CoreSpec:
    """One PowerPC 450 core."""

    frequency_hz: float = 850 * MHZ
    #: double-hummer FPU: 2 FMAs (4 flops) per cycle
    flops_per_cycle: float = 4.0
    l1_bytes: int = 64 * KIB

    @property
    def peak_flops(self) -> float:
        """Peak floating-point rate of one core (flop/s)."""
        return self.frequency_hz * self.flops_per_cycle


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: four cores sharing L3, memory and the torus links."""

    core: CoreSpec = CoreSpec()
    n_cores: int = 4
    l3_bytes: int = 8 * MIB
    memory_bytes: int = 2 * GB
    memory_bandwidth: float = 13.6 * GB  # bytes/s

    @property
    def peak_flops(self) -> float:
        """Peak node rate; Table I lists 13.6 Gflops/node."""
        return self.n_cores * self.core.peak_flops


@dataclass(frozen=True)
class TorusSpec:
    """The 3D torus point-to-point network, per node.

    Six bidirectional links (+x, -x, +y, -y, +z, -z); Table I quotes the
    aggregate as ``6 x 2 x 425 MB/s = 5.1 GB/s``.
    """

    #: raw unidirectional bandwidth of one link (Table I)
    link_bandwidth: float = 425 * MB
    #: effective achievable bandwidth for MPI messages (Fig 2 asymptote)
    effective_bandwidth: float = 375 * MB
    #: per-message software + injection overhead (calibrated to Fig 2)
    message_overhead: float = 2.7 * US
    #: additional per-hop latency for multi-hop routes
    per_hop_latency: float = 0.1 * US
    n_links: int = 6

    @property
    def aggregate_bandwidth(self) -> float:
        """Total bidirectional torus bandwidth per node (5.1 GB/s)."""
        return self.n_links * 2 * self.link_bandwidth

    def message_time(self, nbytes: float, hops: int = 1) -> float:
        """Time for one message of ``nbytes`` over ``hops`` links (no contention)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        return self.message_overhead + (hops - 1) * self.per_hop_latency + nbytes / self.effective_bandwidth

    def bandwidth(self, nbytes: float, hops: int = 1) -> float:
        """Achieved bandwidth (bytes/s) for one message of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.message_time(nbytes, hops)


@dataclass(frozen=True)
class TreeSpec:
    """The collective (tree) network used for reductions and broadcasts."""

    bandwidth: float = 850 * MB  # 6.8 Gb/s
    per_stage_latency: float = 1.3 * US

    def collective_time(self, nbytes: float, n_nodes: int) -> float:
        """Time for a broadcast/reduction of ``nbytes`` over ``n_nodes``.

        The hardware tree pipelines payloads, so cost is one traversal
        (depth * stage latency) plus the streaming time of the payload.
        """
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if n_nodes == 1:
            return 0.0
        depth = max(1, (n_nodes - 1).bit_length())
        return depth * self.per_stage_latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class ThreadSpec:
    """Costs of the software threading layer (pthreads + MPI thread modes).

    These are not in Table I; they are the calibrated knobs behind the
    paper's two hybrid approaches:

    * ``mpi_multiple_overhead`` — extra cost per MPI call in
      ``MPI_THREAD_MULTIPLE`` mode (lock acquisition), paid by
      *Hybrid multiple*.
    * ``barrier_time`` — a 4-thread in-node barrier, paid once per *grid*
      by *Hybrid master-only* (the reason it loses, section VI).
    * ``join_time`` — one final thread join, paid once per FD *invocation*
      by *Hybrid multiple* ("the synchronization penalty is constant").
    * ``spawn_time`` — creating/waking the worker threads at invocation
      start.
    """

    mpi_multiple_overhead: float = 3.0 * US
    barrier_time: float = 25.0 * US
    join_time: float = 5.0 * US
    spawn_time: float = 5.0 * US
    #: CPU time consumed by one MPI call (argument checking, queue setup,
    #: DMA descriptor injection) on an 850 MHz PPC450 — paid by the calling
    #: thread and not overlappable.  This is what batching amortizes.
    mpi_call_cpu_time: float = 2.0 * US


@dataclass(frozen=True)
class MachineSpec:
    """A full machine: node spec + network specs + compute-kernel calibration."""

    node: NodeSpec = NodeSpec()
    torus: TorusSpec = TorusSpec()
    tree: TreeSpec = TreeSpec()
    threads: ThreadSpec = ThreadSpec()
    #: minimum nodes for the partition to close into a torus (else mesh)
    torus_min_nodes: int = 512
    #: calibrated stencil cost: seconds per grid point per core for the
    #: 13-point double-precision stencil on a *large* block (memory-bound
    #: on a PPC450; the compute model's primary free parameter)
    stencil_point_time: float = 110e-9
    #: small-block penalty: the ghost shells must be streamed from memory
    #: too, so per-point cost scales with (padded volume / block volume)
    #: raised to this exponent (0 = no penalty, 1 = fully memory bound;
    #: 0.4 calibrated against the paper's utilization figures —
    #: see repro.analysis.calibration for the reproducible fit)
    halo_compute_exponent: float = 0.4
    #: bytes per grid point (real-valued grids; complex would be 16)
    bytes_per_point: int = 8

    def with_(self, **kwargs: Any) -> "MachineSpec":
        """Return a copy with some fields replaced (calibration helper)."""
        return replace(self, **kwargs)


#: The default Blue Gene/P installation modelled throughout the library.
BGP_SPEC = MachineSpec()


def table1_rows() -> list[tuple[str, str]]:
    """Regenerate Table I ("Hardware description of a Blue Gene/P node")."""
    node = BGP_SPEC.node
    torus = BGP_SPEC.torus
    return [
        ("Node CPU", f"{node.n_cores} PowerPC 450 cores"),
        ("CPU frequency", f"{node.core.frequency_hz / MHZ:.0f} MHz"),
        ("L1 cache (private)", f"{node.core.l1_bytes // KIB}KB per core"),
        ("L2 cache (private)", "Seven stream prefetching"),
        ("L3 cache (shared)", f"{node.l3_bytes // MIB}MB"),
        ("Main memory", format_bytes(node.memory_bytes)),
        ("Main memory bandwidth", format_rate(node.memory_bandwidth)),
        ("Peak performance", f"{node.peak_flops / GFLOPS:.1f} Gflops/node"),
        (
            "Torus bandwidth",
            f"{torus.n_links} x 2 x {torus.link_bandwidth / MB:.0f}MB/s"
            f" = {torus.aggregate_bandwidth / GB:.1f}GB/s",
        ),
    ]
