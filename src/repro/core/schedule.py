"""The schedule IR: one compiled plan executed by all three planes.

The four programming approaches used to be implemented three separate
times — as imperative communication loops in the functional engine
(:mod:`repro.core.engine`), as generator processes in the DES runner
(:mod:`repro.core.simrun`), and as closed-form cost sums in the analytic
model (:mod:`repro.core.perfmodel`).  This module factors the *schedule*
out of all three: :func:`compile_schedule` lowers
``Approach x Decomposition x batch config`` to an explicit per-worker
list of typed steps, and each plane interprets those steps in its own
currency (real NumPy transfers, simulated message events, cost formulas).

Step types
----------

``PostSend``/``PostRecv``
    Start one non-blocking halo message (one direction, one batch of
    grids).  ``seq`` numbers exchanges globally — every rank derives the
    same numbering from the same logical layout, so
    ``message_tag(seq, dim, step)`` matches across ranks without any
    negotiation.
``WaitAll``
    Complete every receive posted under one ``seq``; ghost slabs may be
    unpacked afterwards.
``ApplyLocalWraps`` / ``ComputeBoundary`` / ``ComputeInterior``
    Ghost finalization (periodic self-wraps, boundary zeroing) and the
    stencil kernel for one grid.  Only ``ComputeInterior`` costs time in
    the timing planes; the split keeps the functional semantics explicit.
``GridBarrier``
    Hybrid master-only's per-grid thread barrier (section VI).
``JoinBarrier``
    End-of-invocation marker for one worker of a thread team; the thread
    spawn/join cost lives here in the timing planes.
``PartialGemm``
    One blocked GEMM tile of the band-ring orthogonalization; it carries
    its flops.

The band ring (:class:`BandSchedulePlan`) compiles to the same
``PostSend``/``PostRecv``/``WaitAll`` steps as a halo exchange, on the
direction index :data:`RING_DIM` that no halo direction uses.

Plan structure
--------------

A :class:`SchedulePlan` holds the *logical* schedule — worker grid
ownership and the global round/seq layout, identical on every rank — and
instantiates concrete per-rank step lists lazily (:meth:`~SchedulePlan
.rank_plan`), expanded from those same rounds.  Only the planes that
execute steps build them (the functional engine and the DES replay); the
analytic model prices :meth:`~SchedulePlan.worker_rounds` and
:meth:`~SchedulePlan.directions` directly, so a 16384-core plan never
materializes a step for it.  Grid ids inside steps are *logical indices*
``0..n_grids-1``; the functional engine maps them onto its callers' grid
ids, the timing planes use them as-is.

Plans are cached in a module-level ``functools.lru_cache`` keyed on
``(approach, decomposition, n_grids, batch_size, ramp_up, halo width,
workers)`` — all frozen dataclasses — so an SCF loop compiles once and
re-executes per iteration, and the three planes evaluating the same
configuration share one plan object.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.approaches import Approach
from repro.core.batching import batch_schedule, split_among_workers
from repro.grid.bandgroups import BandGroups
from repro.grid.decompose import Decomposition
from repro.grid.grid import GridDescriptor
from repro.transport.errors import message_tag, ring_tag
from repro.util.validation import check_positive_int

#: the paper's stencil radius — the default halo width of compiled plans
DEFAULT_HALO_WIDTH = 2
#: the direction index of band-ring exchanges.  Halo directions use
#: 0..2, so a ring message never shares a ``(seq, dim, direction)`` key
#: with a halo message, even in a trace that holds both.
RING_DIM = 3


def _wire_tag(seq: int, dim: int, step: int, phase: int) -> int:
    """The tag one exchange step sends under: ring stages keep
    :func:`ring_tag`, halo messages :func:`message_tag`."""
    if dim == RING_DIM:
        return ring_tag(phase, seq)
    return message_tag(seq, dim, step)


# -- step types ---------------------------------------------------------------
@dataclass(frozen=True)
class PostSend:
    """Start a non-blocking send of one direction's batched slabs."""

    seq: int
    dim: int
    step: int
    dst: int  # destination domain (band group for ring stages)
    grid_ids: tuple[int, ...]
    nbytes: int  # whole message (all grids of the batch)
    slot: int = 0  # rank offset within a node (flat sub-groups)
    phase: int = 0  # ring pass of a RING_DIM stage; 0 for halo messages

    @property
    def tag(self) -> int:
        return _wire_tag(self.seq, self.dim, self.step, self.phase)


@dataclass(frozen=True)
class PostRecv:
    """Post the matching non-blocking receive for one direction."""

    seq: int
    dim: int
    step: int
    src: int  # source domain (band group for ring stages)
    grid_ids: tuple[int, ...]
    nbytes: int
    slot: int = 0
    phase: int = 0

    @property
    def tag(self) -> int:
        return _wire_tag(self.seq, self.dim, self.step, self.phase)


@dataclass(frozen=True)
class WaitAll:
    """Complete every receive posted under ``seq``."""

    seq: int
    grid_ids: tuple[int, ...]


@dataclass(frozen=True)
class ApplyLocalWraps:
    """Copy one grid's periodic self-wrap slabs (plain memcpys)."""

    grid_id: int


@dataclass(frozen=True)
class ComputeBoundary:
    """Finalize one grid's non-periodic ghost shells (zeroing)."""

    grid_id: int


@dataclass(frozen=True)
class ComputeInterior:
    """Run the stencil kernel over one grid's block."""

    grid_id: int


@dataclass(frozen=True)
class GridBarrier:
    """Thread barrier after one grid (hybrid master-only)."""

    grid_id: int


@dataclass(frozen=True)
class JoinBarrier:
    """One worker of a thread team reaches the invocation's join point."""

    worker: int


@dataclass(frozen=True)
class PartialGemm:
    """One blocked GEMM tile against the band block currently held:
    an ``m x k @ k x n`` product building one strip of the overlap
    matrix (phase 0) or accumulating one rotation term (phase 1)."""

    seq: int  # stage 0 .. nb-1
    phase: int
    src_group: int  # whose bands the held block carries at this stage
    m: int
    n: int
    k: int

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k


Step = Union[
    PostSend,
    PostRecv,
    WaitAll,
    ApplyLocalWraps,
    ComputeBoundary,
    ComputeInterior,
    GridBarrier,
    JoinBarrier,
    PartialGemm,
]


@dataclass(frozen=True)
class WorkerPlan:
    """The step list of one worker (thread, sub-group rank, or the rank)."""

    index: int
    slot: int
    grid_ids: tuple[int, ...]
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class RankPlan:
    """All workers of one rank (domain)."""

    domain: int
    workers: tuple[WorkerPlan, ...]


class SchedulePlan:
    """One compiled schedule: logical layout + lazy per-rank step lists."""

    def __init__(
        self,
        approach: Approach,
        decomp: Decomposition,
        n_grids: int,
        batch_size: int,
        ramp_up: bool,
        halo_width: int,
        n_workers: int,
    ):
        self.approach = approach
        self.decomp = decomp
        self.n_grids = n_grids
        self.batch_size = batch_size
        self.ramp_up = ramp_up
        self.halo_width = halo_width
        self.n_workers = n_workers
        # structural flags — the planes branch on *these*, not on Approach
        self.blocking = approach.serialized_exchange
        self.double_buffered = approach.double_buffering
        self.sync_per_grid = approach.sync_per_grid
        self.uses_thread_team = approach.is_hybrid
        #: flat sub-groups: workers are the node's virtual-mode ranks
        #: (slot offsets), not threads of one rank
        self.workers_are_ranks = not (
            approach.is_hybrid
            or approach.decompose_per_rank
            or approach.serialized_exchange
        )

        # logical layout, identical on every rank: worker grid ownership
        # and the global (seq, batch) rounds
        if self.blocking or self.sync_per_grid:
            self._worker_grids = [tuple(range(n_grids))]
        else:
            self._worker_grids = [
                tuple(g)
                for g in split_among_workers(list(range(n_grids)), n_workers)
            ]
        self._logical_rounds: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        seq = 0
        for wg in self._worker_grids:
            rounds: list[tuple[int, tuple[int, ...]]] = []
            if self.blocking:
                # one blocking exchange round per grid; seq == grid index
                rounds = [(g, (g,)) for g in wg]
            elif wg:
                for batch in batch_schedule(len(wg), batch_size, ramp_up):
                    rounds.append((seq, tuple(wg[i] for i in batch)))
                    seq += 1
            self._logical_rounds.append(tuple(rounds))

        self._rank_plans: dict[int, RankPlan] = {}
        self._dir_cache: dict[int, tuple[tuple, tuple]] = {}

    # -- logical layout ---------------------------------------------------
    def worker_rounds(self, worker: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """One worker's exchange rounds, ``(seq, grid_ids)`` in order.

        Identical on every rank.  A round sends one message per send
        direction of :meth:`directions`, each carrying the direction's
        per-grid bytes times ``len(grid_ids)``; the step lists of
        :meth:`rank_plan` are expanded from exactly these rounds, and
        the analytic model prices them without materializing any step.
        """
        return self._logical_rounds[worker]

    # -- geometry ---------------------------------------------------------
    def directions(self, domain: int) -> tuple[tuple, tuple]:
        """(outgoing, incoming) remote directions of one domain.

        Each entry is ``(dim, step, peer_domain, nbytes_per_grid)``; the
        receive bytes come from the *sender's* face (blocks may be
        uneven).  Canonical order: dimension-major, +1 before -1 —
        matching the halo-message geometry every plane uses.
        """
        cached = self._dir_cache.get(domain)
        if cached is not None:
            return cached
        d, w = self.decomp, self.halo_width
        sends, recvs = [], []
        for dim in range(3):
            for step in (+1, -1):
                nbytes = d.send_bytes(domain, dim, step, w)
                if nbytes > 0:
                    sends.append((dim, step, d.neighbor(domain, dim, step), nbytes))
                src = d.neighbor(domain, dim, -step)
                if src is not None and src != domain:
                    recvs.append((dim, step, src, d.send_bytes(src, dim, step, w)))
        self._dir_cache[domain] = (tuple(sends), tuple(recvs))
        return self._dir_cache[domain]

    @property
    def n_owners(self) -> int:
        """Owners of step lists: the domains."""
        return self.decomp.n_domains

    def n_directions(self, domain: int) -> int:
        """Remote send directions of one domain (<= 6)."""
        return len(self.directions(domain)[0])

    # -- summary accounting (no step materialization needed) --------------
    @property
    def rounds_per_rank(self) -> int:
        """Exchange rounds one rank performs (all workers together)."""
        return sum(len(r) for r in self._logical_rounds)

    @property
    def grid_barriers_per_rank(self) -> int:
        return self.n_grids if self.sync_per_grid else 0

    def message_count(self, domain: int) -> int:
        """Messages one domain sends per invocation (all its workers)."""
        return self.n_directions(domain) * self.rounds_per_rank

    # -- per-rank instantiation -------------------------------------------
    def rank_plan(self, domain: int) -> RankPlan:
        """The concrete step lists of one rank (built once, cached)."""
        plan = self._rank_plans.get(domain)
        if plan is None:
            plan = self._build_rank_plan(domain)
            self._rank_plans[domain] = plan
        return plan

    def _build_rank_plan(self, domain: int) -> RankPlan:
        send_dirs, recv_dirs = self.directions(domain)
        send_by_dir = {(d, s): (peer, nb) for d, s, peer, nb in send_dirs}
        recv_by_dir = {(d, s): (peer, nb) for d, s, peer, nb in recv_dirs}
        workers = []
        for index, grids in enumerate(self._worker_grids):
            logical = self.worker_rounds(index)
            slot = index if self.workers_are_ranks else 0
            steps: list[Step] = []
            if self.blocking:
                self._emit_blocking(logical, slot, send_by_dir, recv_by_dir, steps)
            else:
                self._emit_pipelined(logical, slot, send_dirs, recv_dirs, steps)
            if self.uses_thread_team and steps:
                steps.append(JoinBarrier(worker=index))
            workers.append(
                WorkerPlan(
                    index=index,
                    slot=slot,
                    grid_ids=grids,
                    steps=tuple(steps),
                )
            )
        return RankPlan(domain=domain, workers=tuple(workers))

    def _emit_blocking(self, logical, slot, send_by_dir, recv_by_dir, steps) -> None:
        """Serialized exchange: per grid, per direction, send-recv-wait."""
        for seq, batch in logical:
            (g,) = batch
            for dim in range(3):
                for step in (+1, -1):
                    snd = send_by_dir.get((dim, step))
                    if snd is not None:
                        steps.append(
                            PostSend(seq, dim, step, snd[0], batch, snd[1], slot)
                        )
                    rcv = recv_by_dir.get((dim, step))
                    if rcv is not None:
                        steps.append(
                            PostRecv(seq, dim, step, rcv[0], batch, rcv[1], slot)
                        )
                        # blocking semantics: complete this direction
                        # before touching the next one
                        steps.append(WaitAll(seq=seq, grid_ids=batch))
            steps.extend(self._compute_steps(g))

    def _emit_pipelined(self, logical, slot, send_dirs, recv_dirs, steps) -> None:
        """Simultaneous non-blocking exchange, optionally double-buffered."""
        pending: Optional[tuple[int, tuple[int, ...]]] = None
        for seq, batch in logical:
            n = len(batch)
            steps.extend(
                PostSend(seq, dim, step, peer, batch, nb * n, slot)
                for dim, step, peer, nb in send_dirs
            )
            steps.extend(
                PostRecv(seq, dim, step, peer, batch, nb * n, slot)
                for dim, step, peer, nb in recv_dirs
            )
            if self.double_buffered:
                if pending is not None:
                    self._emit_drain(pending, steps)
                pending = (seq, batch)
            else:
                self._emit_drain((seq, batch), steps)
        if pending is not None:
            self._emit_drain(pending, steps)

    def _emit_drain(
        self, exchange: tuple[int, tuple[int, ...]], steps: list[Step]
    ) -> None:
        seq, batch = exchange
        steps.append(WaitAll(seq=seq, grid_ids=batch))
        for g in batch:
            steps.extend(self._compute_steps(g))

    def _compute_steps(self, g: int) -> list[Step]:
        out: list[Step] = [ApplyLocalWraps(g), ComputeBoundary(g), ComputeInterior(g)]
        if self.sync_per_grid:
            out.append(GridBarrier(g))
        return out

    # -- inspection --------------------------------------------------------
    def describe(self, domain: int = 0) -> str:
        """Human-readable listing of one rank's compiled steps."""
        a = self.approach
        flags = []
        if self.blocking:
            flags.append("blocking serialized exchange")
        if self.double_buffered:
            flags.append("double-buffered")
        if self.sync_per_grid:
            flags.append("per-grid barrier")
        if self.uses_thread_team:
            flags.append("thread team")
        if self.workers_are_ranks:
            flags.append("workers are node-slot ranks")
        lines = [
            f"schedule {a.name}: {self.decomp.n_domains} domains x "
            f"{self.n_grids} grids, batch {self.batch_size}, "
            f"ramp-up {'on' if self.ramp_up else 'off'}, "
            f"halo width {self.halo_width}",
            f"  workers/rank {self.n_workers}"
            + (", " + ", ".join(flags) if flags else ""),
            f"  domain {domain}: {self.n_directions(domain)} remote "
            f"directions, {self.message_count(domain)} messages, "
            f"{self.grid_barriers_per_rank} grid barriers",
        ]
        for wp in self.rank_plan(domain).workers:
            lines.append(
                f"domain {domain} / worker {wp.index} "
                f"(slot {wp.slot}, grids {list(wp.grid_ids)}):"
            )
            if not wp.steps:
                lines.append("    (idle)")
            for i, st in enumerate(wp.steps):
                lines.append(f"  {i:3d}  {_format_step(st)}")
        return "\n".join(lines)


_DIR_SIGN = {+1: "+", -1: "-"}


def _format_step(st: Step) -> str:
    if isinstance(st, PostSend):
        return (
            f"PostSend  seq {st.seq:<3d} dim {st.dim}{_DIR_SIGN[st.step]} "
            f"-> domain {st.dst:<3d} grids {list(st.grid_ids)}  {st.nbytes} B"
        )
    if isinstance(st, PostRecv):
        return (
            f"PostRecv  seq {st.seq:<3d} dim {st.dim}{_DIR_SIGN[st.step]} "
            f"<- domain {st.src:<3d} grids {list(st.grid_ids)}  {st.nbytes} B"
        )
    if isinstance(st, WaitAll):
        return f"WaitAll   seq {st.seq:<3d} grids {list(st.grid_ids)}"
    if isinstance(st, ApplyLocalWraps):
        return f"ApplyLocalWraps   grid {st.grid_id}"
    if isinstance(st, ComputeBoundary):
        return f"ComputeBoundary   grid {st.grid_id}"
    if isinstance(st, ComputeInterior):
        return f"ComputeInterior   grid {st.grid_id}"
    if isinstance(st, GridBarrier):
        return f"GridBarrier       grid {st.grid_id}"
    if isinstance(st, JoinBarrier):
        return f"JoinBarrier       worker {st.worker}"
    return repr(st)


# -- compilation and caching --------------------------------------------------
#: plans each cache keeps before the least recently used one is evicted
PLAN_CACHE_SIZE = 256
# the cached constructors take the normalised positional key; the rank
# threads of the functional engine compile concurrently, and lru_cache
# keeps its bookkeeping consistent across them
_schedule_plan = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)(SchedulePlan)


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters summed over the FD and band plan caches."""
    infos = [_schedule_plan.cache_info(), _band_plan.cache_info()]
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "size": sum(i.currsize for i in infos),
    }


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the counters (tests, benchmarks)."""
    _schedule_plan.cache_clear()
    _band_plan.cache_clear()


def timing_plan(
    approach: Approach,
    grid: GridDescriptor,
    n_grids: int,
    n_cores: int,
    batch_size: int = 1,
    ramp_up: bool = False,
) -> SchedulePlan:
    """The FD plan the timing planes price and replay on ``n_cores`` cores.

    Decomposes ``grid`` the way ``approach`` does on ``n_cores`` and
    compiles (or fetches from cache) the plan the analytic model, the
    DES replay, critical-path attribution and ``repro schedule`` all
    walk.  The worker count is the timing planes' own: hybrid multiple
    runs one comm+compute thread per core of the node and flat
    sub-groups one virtual-node rank per core, both capped by the cores
    actually available — unlike the functional plane, which always
    emulates the full four-thread team (``Approach.compute_threads``)
    regardless of any simulated core count.  Flat sub-groups is thus the
    one approach whose worker *structure* differs between planes.
    """
    n_workers = None
    if approach.is_hybrid or not approach.decompose_per_rank:
        n_workers = min(4, n_cores)
    return compile_schedule(
        approach,
        Decomposition(grid, approach.domains_for(n_cores)),
        n_grids,
        batch_size,
        ramp_up,
        n_workers=n_workers,
    )


def compile_schedule(
    approach: Approach,
    decomp: Decomposition,
    n_grids: int,
    batch_size: int = 1,
    ramp_up: bool = False,
    *,
    halo_width: int = DEFAULT_HALO_WIDTH,
    n_workers: Optional[int] = None,
) -> SchedulePlan:
    """Compile (or fetch from cache) the plan for one configuration.

    ``n_workers`` overrides the per-rank worker count for the pipelined
    approaches (hybrid threads, sub-group ranks); the default is
    ``approach.compute_threads``.  Serialized and master-only schedules
    always run a single worker per rank.
    """
    check_positive_int(n_grids, "n_grids")
    check_positive_int(halo_width, "halo_width")
    approach.validate_batch_size(batch_size)
    if approach.serialized_exchange or approach.sync_per_grid:
        resolved = 1
    elif n_workers is not None:
        resolved = check_positive_int(n_workers, "n_workers")
    else:
        resolved = approach.compute_threads
    return _schedule_plan(
        approach, decomp, n_grids, batch_size, ramp_up, halo_width, resolved
    )


# -- the band-parallel orthogonalization plan ---------------------------------
#: phase indices of the two ring passes every band plan contains
OVERLAP_PHASE = 0
ROTATE_PHASE = 1


class BandSchedulePlan:
    """The compiled ring-orthogonalization plan of one band layout.

    Two passes run back to back, each a full trip of band blocks around
    the group ring: the **overlap** pass builds this group's strips of
    the G x G overlap (or Hamiltonian) matrix, the **rotate** pass
    accumulates the rotated states.  Per stage the plan posts the send
    of the held block to the next group's same-domain peer
    (:class:`PostSend`) and the receive from the previous group's
    (:class:`PostRecv`), runs the :class:`PartialGemm` on the block it
    already holds, then completes the receive (:class:`WaitAll`) — the
    exchange rides under the GEMM, which is the whole point of the ring
    formulation.  Ring exchanges use direction ``(RING_DIM, +1)`` and
    send under :func:`~repro.transport.errors.ring_tag`.

    ``nb = 1`` degenerates to one :class:`PartialGemm` per phase and no
    ring traffic at all.

    The step sequence depends only on the rank's *group*; ``gemm_points``
    (the per-worker GEMM inner dimension) and ``ring_points`` (the
    per-domain block points shipped per stage) size the steps without
    changing their order, so all three planes walk identical sequences.
    """

    def __init__(
        self,
        layout: BandGroups,
        gemm_points: int,
        ring_points: int,
        bytes_per_point: int,
    ):
        self.layout = layout
        self.gemm_points = check_positive_int(gemm_points, "gemm_points")
        self.ring_points = check_positive_int(ring_points, "ring_points")
        self.bytes_per_point = check_positive_int(
            bytes_per_point, "bytes_per_point"
        )
        self._phase_steps: dict[tuple[int, int], tuple[Step, ...]] = {}
        self._lock = threading.Lock()

    @property
    def n_owners(self) -> int:
        """Owners of step lists: the band groups."""
        return self.layout.n_groups

    @property
    def stage_nbytes(self) -> int:
        """Bytes one rank ships per ring stage (its held band block)."""
        return (
            self.layout.bands_per_group
            * self.ring_points
            * self.bytes_per_point
        )

    def directions(self, group: int) -> tuple[tuple, tuple]:
        """(outgoing, incoming) ring directions of one group.

        :meth:`SchedulePlan.directions`' format: ``(RING_DIM, +1,
        peer_group, stage_nbytes)`` to the ring successor and from the
        ring predecessor (none at ``nb = 1``); the ring's exchange steps
        are expanded from these.
        """
        lay = self.layout
        if lay.n_groups == 1:
            return (), ()
        nbytes = self.stage_nbytes
        return (
            ((RING_DIM, +1, lay.ring_send_group(group), nbytes),),
            ((RING_DIM, +1, lay.ring_recv_group(group), nbytes),),
        )

    def phase_steps(self, group: int, phase: int) -> tuple[Step, ...]:
        """One phase's step list for any rank in ``group``.

        The functional executor runs the overlap phase per matrix build
        and the rotate phase per rotation, so it pulls them separately;
        the DES replay and the model walk :meth:`group_steps`.
        """
        with self._lock:
            steps = self._phase_steps.get((group, phase))
            if steps is None:
                steps = self._emit_phase(group, phase)
                self._phase_steps[(group, phase)] = steps
            return steps

    def group_steps(self, group: int) -> tuple[Step, ...]:
        """The full two-phase step list of any rank in ``group``."""
        return self.phase_steps(group, OVERLAP_PHASE) + self.phase_steps(
            group, ROTATE_PHASE
        )

    def _emit_phase(self, group: int, phase: int) -> tuple[Step, ...]:
        lay = self.layout
        nb = lay.n_groups
        m = lay.bands_per_group
        send_dirs, recv_dirs = self.directions(group)
        steps: list[Step] = []
        for stage in range(nb):
            seq = stage + 1  # the stage this exchange delivers
            if seq < nb:
                steps += [
                    PostSend(seq, dim, step, peer, (), nbytes, phase=phase)
                    for dim, step, peer, nbytes in send_dirs
                ] + [
                    PostRecv(seq, dim, step, peer, (), nbytes, phase=phase)
                    for dim, step, peer, nbytes in recv_dirs
                ]
            steps.append(
                PartialGemm(
                    seq=stage,
                    phase=phase,
                    src_group=(group - stage) % nb,
                    m=m,
                    n=m,
                    k=self.gemm_points,
                )
            )
            if seq < nb:
                steps.append(WaitAll(seq=seq, grid_ids=()))
        return tuple(steps)


_band_plan = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)(BandSchedulePlan)


def compile_band_schedule(
    layout: BandGroups,
    gemm_points: int,
    ring_points: int,
    bytes_per_point: int = 8,
) -> BandSchedulePlan:
    """Compile (or fetch from cache) the ring-orthogonalization plan."""
    return _band_plan(layout, gemm_points, ring_points, bytes_per_point)


# -- step dependency metadata -------------------------------------------------
def recv_sources(plan) -> dict:
    """Producer-owner lookup for every receive direction of a plan.

    ``(owner, dim, direction) -> source owner``: domains of a
    :class:`SchedulePlan`, band groups of a :class:`BandSchedulePlan`.
    The geometry is seq-independent, so the map stays small; it is the
    metadata :mod:`repro.obs.critpath` resolves a trace's cross-rank
    edges with, without re-deriving the geometry.
    """
    out: dict = {}
    for owner in range(plan.n_owners):
        for dim, step, src, _nbytes in plan.directions(owner)[1]:
            out[(owner, dim, step)] = src
    return out
