"""The four programming approaches of section VI, as declarative specs.

Every knob that distinguishes the approaches in the paper is a field here,
so the functional engine, the DES runner and the analytic model all consume
one description:

================  ========  ==========  ============  ===========  ==========
approach          node mode thread mode decomposition comm done by sync cost
================  ========  ==========  ============  ===========  ==========
Flat original     VN        SINGLE      per rank      each rank    none
Flat optimized    VN        SINGLE      per rank      each rank    none
Hybrid multiple   SMP       MULTIPLE    per node      each thread  constant
Hybrid master-o.  SMP       SINGLE      per node      master       per grid
================  ========  ==========  ============  ===========  ==========

Flat original is the only approach without the section V optimizations
(simultaneous non-blocking exchange, double buffering, batching).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.machine.partition import NodeMode
from repro.util.validation import check_positive_int


class ThreadMode(enum.Enum):
    """MPI-2 thread support levels (section III-A of the paper).

    Only the two levels the paper contrasts carry a behavioural difference
    in the model: ``MULTIPLE`` pays per-call locking, ``SINGLE`` (and the
    intermediate levels) do not — but FUNNELED/SERIALIZED are represented
    so user code can declare intent and be validated against it.
    """

    SINGLE = "single"
    FUNNELED = "funneled"
    SERIALIZED = "serialized"
    MULTIPLE = "multiple"

    @property
    def pays_lock_overhead(self) -> bool:
        return self is ThreadMode.MULTIPLE

    @property
    def allows_concurrent_calls(self) -> bool:
        return self is ThreadMode.MULTIPLE


@dataclass(frozen=True)
class Approach:
    """One programming approach for the distributed FD operation."""

    name: str
    #: how the four cores of a node are exposed (VN = paper's virtual mode)
    node_mode: NodeMode
    #: MPI thread support level requested
    thread_mode: ThreadMode
    #: True: every grid is divided over all *ranks* (flat); False: over
    #: *nodes*, with whole grids distributed between the node's cores
    decompose_per_rank: bool
    #: surface exchange one dimension at a time, blocking (original GPAW)
    serialized_exchange: bool
    #: overlap exchanges with computation across grids/batches (section V-A)
    double_buffering: bool
    #: pack several grids' surfaces into one message (section V-A)
    supports_batching: bool
    #: threads per MPI rank that perform communication
    comm_threads: int
    #: threads per MPI rank that compute
    compute_threads: int
    #: a thread barrier after *every grid* (master-only's penalty)
    sync_per_grid: bool

    def __post_init__(self) -> None:
        if self.comm_threads < 1 or self.compute_threads < 1:
            raise ValueError("thread counts must be >= 1")
        if self.comm_threads > self.compute_threads:
            raise ValueError("cannot have more comm threads than threads")
        if self.comm_threads > 1 and not self.thread_mode.allows_concurrent_calls:
            raise ValueError(
                f"{self.name}: {self.comm_threads} communicating threads need "
                f"ThreadMode.MULTIPLE, got {self.thread_mode.value!r} mode "
                "(it forbids concurrent MPI calls from one rank)"
            )

    @property
    def is_hybrid(self) -> bool:
        """True when threads (not virtual-mode ranks) use the cores."""
        return self.node_mode is NodeMode.SMP

    def domains_for(self, n_cores: int) -> int:
        """Number of decomposition domains on ``n_cores`` CPU cores.

        Flat modes divide every grid over all ranks (= cores, in VN mode);
        hybrid modes divide only over nodes (4 cores each), the paper's
        "Flat optimized divides the grids four times more" (section VII-A).
        """
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        if self.decompose_per_rank:
            return n_cores
        if n_cores < 4:
            return 1  # a partial node still decomposes at node level
        if n_cores % 4:
            raise ValueError(f"hybrid modes need whole nodes, got {n_cores} cores")
        return n_cores // 4

    def validate_batch_size(self, batch_size: int) -> int:
        """Check a batch size against this approach's capabilities.

        The one validation every consumer (schedule compiler, functional
        engine, DES runner, analytic model) funnels through, so the error
        text stays uniform.  Returns the batch size as an int.
        """
        batch_size = check_positive_int(batch_size, "batch_size")
        if not self.supports_batching and batch_size != 1:
            raise ValueError(f"{self.name} does not support batching")
        return batch_size


FLAT_ORIGINAL = Approach(
    name="flat-original",
    node_mode=NodeMode.VN,
    thread_mode=ThreadMode.SINGLE,
    decompose_per_rank=True,
    serialized_exchange=True,
    double_buffering=False,
    supports_batching=False,
    comm_threads=1,
    compute_threads=1,
    sync_per_grid=False,
)

FLAT_OPTIMIZED = Approach(
    name="flat-optimized",
    node_mode=NodeMode.VN,
    thread_mode=ThreadMode.SINGLE,
    decompose_per_rank=True,
    serialized_exchange=False,
    double_buffering=True,
    supports_batching=True,
    comm_threads=1,
    compute_threads=1,
    sync_per_grid=False,
)

HYBRID_MULTIPLE = Approach(
    name="hybrid-multiple",
    node_mode=NodeMode.SMP,
    thread_mode=ThreadMode.MULTIPLE,
    decompose_per_rank=False,
    serialized_exchange=False,
    double_buffering=True,
    supports_batching=True,
    comm_threads=4,
    compute_threads=4,
    sync_per_grid=False,
)

HYBRID_MASTER_ONLY = Approach(
    name="hybrid-master-only",
    node_mode=NodeMode.SMP,
    thread_mode=ThreadMode.SINGLE,
    decompose_per_rank=False,
    serialized_exchange=False,
    double_buffering=True,
    supports_batching=True,
    comm_threads=1,
    compute_threads=4,
    sync_per_grid=True,
)

#: Section VII-A's experimental variant: Flat optimized modified so the
#: node's four processes each own a static sub-group of whole grids on a
#: *node-level* decomposition — hybrid multiple's structure realized with
#: virtual-node ranks instead of threads.  Not usable in real GPAW (each
#: rank would need every grid's subset, section IV), but the experiment
#: that proves the decomposition level causes the flat/hybrid gap.
FLAT_SUBGROUPS = Approach(
    name="flat-subgroups",
    node_mode=NodeMode.VN,
    thread_mode=ThreadMode.SINGLE,
    decompose_per_rank=False,
    serialized_exchange=False,
    double_buffering=True,
    supports_batching=True,
    comm_threads=1,
    compute_threads=1,
    sync_per_grid=False,
)

#: The paper's four contenders (the sub-groups variant is an ablation and
#: appears in no figure, so it is not part of this tuple).
ALL_APPROACHES: tuple[Approach, ...] = (
    FLAT_ORIGINAL,
    FLAT_OPTIMIZED,
    HYBRID_MULTIPLE,
    HYBRID_MASTER_ONLY,
)


def approach_by_name(name: str) -> Approach:
    """Look an approach up by its paper name (kebab-case)."""
    for a in ALL_APPROACHES + (FLAT_SUBGROUPS,):
        if a.name == name:
            return a
    names = ", ".join(a.name for a in ALL_APPROACHES + (FLAT_SUBGROUPS,))
    raise ValueError(f"unknown approach {name!r}; choose from: {names}")
