"""The functional distributed FD engine: real numerics, any approach.

Every rank holds the *same subset of every grid* (GPAW's requirement,
section IV): a ``dict[grid_id, LocalGrid]``.  ``DistributedStencil.apply``
executes the chosen approach's communication schedule over a transport
endpoint and returns the output blocks.  All four approaches must produce
results bit-identical to :class:`SequentialStencil` — the central
correctness property of the library, enforced by the integration tests.

The schedules themselves — serialized blocking exchange, simultaneous
non-blocking exchange, double buffering, batching with ramp-up, per-worker
grid ownership and per-grid synchronization points (sections V / VI) — are
*not* implemented here.  They are compiled once by
:func:`repro.core.schedule.compile_schedule` into an explicit step IR, and
``apply`` interprets the resulting per-rank step lists over the transport.
The DES runner and the analytic model consume the *same* compiled plan, so
the three planes cannot drift apart.

In this functional plane, "threads" are executed as deterministic worker
loops inside the rank — the numerics are identical, and the *timing*
differences between threads and ranks are the business of the performance
plane (:mod:`repro.core.perfmodel`, :mod:`repro.core.simrun`).

``apply`` accepts an ``on_step`` hook called with ``(step, worker, start,
end)`` wall-clock timestamps around every interpreted step;
:func:`repro.obs.spans.engine_hook` adapts it to a thread-safe
:class:`repro.obs.spans.SpanTracer` shared by all ranks, recording typed
:class:`repro.obs.spans.StepSpan` objects (step kind, worker, grid batch,
seq) — the schema the simulator's traces use too, so the exporters in
:mod:`repro.obs.export` turn a real run into the same Gantt chart,
Chrome trace, utilization report and real-vs-sim diff.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Optional

import numpy as np

from repro.core.approaches import Approach, FLAT_OPTIMIZED
from repro.core.schedule import (
    ApplyLocalWraps as _ApplyLocalWraps,
    ComputeBoundary as _ComputeBoundary,
    ComputeInterior as _ComputeInterior,
    PostRecv as _PostRecv,
    PostSend as _PostSend,
    SchedulePlan,
    WaitAll as _WaitAll,
    WorkerPlan,
    compile_schedule,
)
from repro.core.workspace import Workspace
from repro.transport.errors import StepInfo, TransportError
from repro.grid.array import LocalGrid
from repro.grid.decompose import Decomposition
from repro.grid.grid import GridDescriptor
from repro.grid.halo import (
    HaloMessage,
    HaloSpec,
    apply_local_wraps,
    halo_messages,
    pack_slabs,
    unpack_slabs,
    zero_boundary_ghosts,
)
from repro.stencil.coefficients import StencilCoefficients
from repro.stencil.kernel import apply_stencil_global, apply_stencil_padded
from repro.transport.inproc import RankEndpoint


class SequentialStencil:
    """The single-process oracle: apply the stencil to whole grids."""

    def __init__(self, grid: GridDescriptor, coeffs: StencilCoefficients):
        self.grid = grid
        self.coeffs = coeffs

    def apply(self, arrays: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Apply the stencil to every grid in ``arrays``."""
        out = {}
        for gid, a in arrays.items():
            self.grid.check_array(a, f"grid {gid}")
            out[gid] = apply_stencil_global(a, self.coeffs, pbc=self.grid.pbc)
        return out


class DistributedStencil:
    """Distributed application of one stencil under a given decomposition.

    One instance serves any number of ``apply`` calls and all approaches;
    per-domain halo geometry is precomputed once.
    """

    def __init__(
        self,
        decomp: Decomposition,
        coeffs: StencilCoefficients,
    ):
        """:attr:`workspace` is the buffer arena every scratch and halo
        message buffer is borrowed from; it is shared by all rank threads
        (a received zero-copy message buffer is recycled by the
        *receiving* rank).  After one warm-up ``apply``, steady-state
        calls that reuse their output blocks (``out=``) perform zero
        array allocations.
        """
        self.decomp = decomp
        self.coeffs = coeffs
        self.halo = HaloSpec(coeffs.radius)
        self.workspace = Workspace()
        self._outgoing: dict[int, list[HaloMessage]] = {}
        self._incoming: dict[int, list[HaloMessage]] = {}

    # -- geometry caches ---------------------------------------------------
    def outgoing(self, rank: int) -> list[HaloMessage]:
        """This rank's outgoing remote messages (local wraps excluded)."""
        if rank not in self._outgoing:
            self._outgoing[rank] = [
                m
                for m in halo_messages(self.decomp, rank, self.halo.width)
                if not m.is_local_wrap
            ]
        return self._outgoing[rank]

    def incoming(self, rank: int) -> list[HaloMessage]:
        """Remote messages that will arrive at this rank."""
        if rank not in self._incoming:
            found: list[HaloMessage] = []
            for dim in range(3):
                for step in (+1, -1):
                    src = self.decomp.neighbor(rank, dim, -step)
                    if src is None or src == rank:
                        continue
                    for m in halo_messages(self.decomp, src, self.halo.width):
                        if m.dim == dim and m.step == step and m.dst_domain == rank:
                            found.append(m)
            self._incoming[rank] = found
        return self._incoming[rank]

    def local_wraps(self, rank: int) -> list[HaloMessage]:
        """Periodic wraps of this rank onto itself (plain memcpys)."""
        return [
            m
            for m in halo_messages(self.decomp, rank, self.halo.width)
            if m.is_local_wrap
        ]

    # -- plan access -------------------------------------------------------
    def plan_for(
        self,
        approach: Approach,
        n_grids: int,
        batch_size: int = 1,
        ramp_up: bool = False,
    ) -> SchedulePlan:
        """The compiled plan ``apply`` will execute for this configuration.

        Compilation is cached on (approach, decomposition, n_grids,
        batch_size, ...) — an SCF loop pays it once and re-executes the
        same plan every iteration.
        """
        return compile_schedule(
            approach,
            self.decomp,
            n_grids,
            batch_size,
            ramp_up,
            halo_width=self.halo.width,
        )

    # -- the public entry point ------------------------------------------------
    def apply(
        self,
        ep: RankEndpoint,
        grids: Mapping[int, LocalGrid],
        approach: Approach = FLAT_OPTIMIZED,
        batch_size: int = 1,
        ramp_up: bool = False,
        out: "Optional[dict[int, LocalGrid]]" = None,
        on_step: "Optional[Callable[[object, int, float, float], None]]" = None,
    ) -> dict[int, LocalGrid]:
        """Apply the stencil to every grid, using ``approach``'s schedule.

        ``ep`` is this rank's transport endpoint; ``grids`` maps grid ids to
        this rank's padded blocks.  Returns output blocks (ghosts zero).
        All ranks must call with the same grid ids and parameters.

        ``out`` may pass the previous call's result back in to be
        overwritten — with it, steady-state calls allocate no arrays at
        all (SCF iterations apply the same operator to the same grid set
        thousands of times; this is where the allocator traffic goes).

        ``on_step(step, worker, start, end)`` is called around every
        interpreted schedule step with wall-clock timestamps — see
        :func:`repro.obs.spans.engine_hook`.
        """
        if ep.size != self.decomp.n_domains:
            raise ValueError(
                f"transport has {ep.size} ranks, decomposition has "
                f"{self.decomp.n_domains} domains"
            )
        approach.validate_batch_size(batch_size)
        for gid, lg in grids.items():
            if lg.domain != ep.rank:
                raise ValueError(
                    f"grid {gid}: LocalGrid belongs to domain {lg.domain}, "
                    f"endpoint is rank {ep.rank}"
                )

        grid_ids = sorted(grids)
        if out is None:
            out = {
                gid: LocalGrid(self.decomp, ep.rank, self.halo)
                for gid in grid_ids
            }
        else:
            if sorted(out) != grid_ids:
                raise ValueError(
                    f"out grid ids {sorted(out)} != input grid ids {grid_ids}"
                )
            for gid, lg in out.items():
                if lg.domain != ep.rank:
                    raise ValueError(
                        f"out grid {gid}: LocalGrid belongs to domain "
                        f"{lg.domain}, endpoint is rank {ep.rank}"
                    )
        if not grid_ids:
            return out

        plan = self.plan_for(approach, len(grid_ids), batch_size, ramp_up)
        # Workers run sequentially inside the rank: sends are eager, so a
        # later worker can never block an earlier worker's receives.
        for wp in plan.rank_plan(ep.rank).workers:
            self._execute_worker(ep, wp, grids, grid_ids, out, on_step)
        return out

    # -- the IR interpreter ----------------------------------------------------
    def _execute_worker(
        self,
        ep: RankEndpoint,
        wp: WorkerPlan,
        grids: Mapping[int, LocalGrid],
        grid_ids: list[int],
        out: dict[int, LocalGrid],
        on_step: "Optional[Callable[[object, int, float, float], None]]",
    ) -> None:
        """Interpret one worker's compiled step list over the transport.

        Plan steps name grids by logical index; ``grid_ids`` maps them to
        the caller's ids.  Send buffers are borrowed from the arena and
        handed to the transport without a copy; over a zero-copy transport
        the receiving rank recycles them after unpacking (the arena is
        shared), otherwise the sender reclaims them as soon as the
        transport has snapshotted the payload.
        """
        ws = self.workspace
        zero_copy = getattr(ep, "zero_copy_sends", False)
        send_geom = {(m.dim, m.step): m for m in self.outgoing(ep.rank)}
        recv_geom = {(m.dim, m.step): m for m in self.incoming(ep.rank)}
        wraps = self.local_wraps(ep.rank)
        # in-flight receives per seq: (handle, geometry, logical grid ids)
        pending: dict[int, list[tuple[object, HaloMessage, tuple[int, ...]]]] = {}
        clock = time.perf_counter
        for st in wp.steps:
            t0 = clock() if on_step is not None else 0.0
            try:
                self._execute_step(
                    ep, st, grids, grid_ids, out, send_geom, recv_geom,
                    wraps, pending, zero_copy,
                )
            except TransportError as exc:
                # Attribute the failure to the compiled step being
                # interpreted: rank, worker, round, direction, grids.
                # Rank and peer are transport ranks: a band group's
                # endpoint numbers its domains from its ``base``
                base = getattr(ep, "base", 0)
                exc.attach_step(_step_info(
                    ep.rank + base, wp.index, st, grid_ids,
                    peer_rank=lambda domain: domain + base,
                ))
                raise
            if on_step is not None:
                on_step(st, wp.index, t0, clock())

    def _execute_step(
        self, ep, st, grids, grid_ids, out, send_geom, recv_geom,
        wraps, pending, zero_copy,
    ) -> None:
        """Interpret a single compiled step (see ``_execute_worker``)."""
        ws = self.workspace
        if isinstance(st, _PostSend):
            m = send_geom[(st.dim, st.step)]
            sources = [grids[grid_ids[i]].data for i in st.grid_ids]
            slab_shape = sources[0][m.send_slices].shape
            buf = ws.borrow((len(sources),) + slab_shape, sources[0].dtype)
            pack_slabs(sources, m.send_slices, buf)
            ep.isend(m.dst_domain, buf, tag=st.tag, copy=False)
            if not zero_copy:
                ws.release(buf)
        elif isinstance(st, _PostRecv):
            m = recv_geom[(st.dim, st.step)]
            handle = ep.irecv(src=m.src_domain, tag=st.tag)
            pending.setdefault(st.seq, []).append((handle, m, st.grid_ids))
        elif isinstance(st, _WaitAll):
            for handle, m, idxs in pending.pop(st.seq, ()):
                payload = handle.wait()
                unpack_slabs(
                    payload,
                    [grids[grid_ids[i]].data for i in idxs],
                    m.recv_slices,
                )
                ws.release(payload)
        elif isinstance(st, _ApplyLocalWraps):
            apply_local_wraps(grids[grid_ids[st.grid_id]].data, wraps)
        elif isinstance(st, _ComputeBoundary):
            zero_boundary_ghosts(
                grids[grid_ids[st.grid_id]].data,
                self.decomp,
                ep.rank,
                self.halo.width,
            )
        elif isinstance(st, _ComputeInterior):
            gid = grid_ids[st.grid_id]
            padded = grids[gid].data
            with ws.borrowing((2, *padded.shape), padded.dtype) as scratch:
                apply_stencil_padded(
                    padded, self.coeffs, out=out[gid].interior, scratch=scratch
                )
        # GridBarrier / JoinBarrier: timing-plane markers; the
        # functional rank runs its workers sequentially, so there is
        # nothing to synchronize here.


def _step_info(
    rank: int,
    worker: int,
    st: object,
    grid_ids: list[int],
    peer_rank: Callable[[int], int],
) -> StepInfo:
    """Schedule-IR coordinates of ``st`` for failure attribution.

    ``rank`` is the failing transport rank; ``peer_rank`` maps the
    step's ``dst``/``src`` (a domain, or a band group on ring stages)
    to the transport rank it names, so a report speaks one numbering.
    """
    logical = getattr(st, "grid_ids", None)
    if logical is None:
        gid = getattr(st, "grid_id", None)
        logical = () if gid is None else (gid,)
    direction = getattr(st, "step", None)
    peer = (
        getattr(st, "dst", None) if isinstance(st, _PostSend)
        else getattr(st, "src", None)
    )
    return StepInfo(
        rank=rank,
        worker=worker,
        step_kind=type(st).__name__,
        seq=getattr(st, "seq", None),
        dim=getattr(st, "dim", None),
        direction=direction if direction in (+1, -1) else None,
        peer=None if peer is None else peer_rank(peer),
        grid_ids=tuple(grid_ids[i] for i in logical if i < len(grid_ids)),
    )
