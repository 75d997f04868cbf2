"""Functional-plane executor for the band-ring orthogonalization plan.

The subspace steps of a band-parallel SCF — overlap/Hamiltonian matrix
builds and subspace rotations — need data from *every* band group, but
each rank only holds its own group's ``G/nb`` wave-function blocks.  The
compiled :class:`repro.core.schedule.BandSchedulePlan` prescribes the
classic systolic ring: ``nb - 1`` stages, each posting a non-blocking
block exchange with the neighbouring groups (the schedule IR's ordinary
``PostSend``/``PostRecv``/``WaitAll``) *before* running the blocked
GEMM on the block currently held, so the transfer hides behind the
matrix multiply.  This module interprets that plan on real NumPy blocks
over the in-process transport — the same step sequence the DES replay
(:func:`repro.core.simrun.simulate_band_plan`) and the planner's
pricing (:meth:`repro.core.planner.Planner.band_plan`) walk.

Two entry points mirror the plan's two phases:

* :meth:`BandRingExecutor.band_matrix` — the overlap phase.  Each rank
  computes its group's *row strip* of a ``G x G`` matrix
  ``M[i, j] = <left_i | right_j>`` as one blocked GEMM per ring stage
  (partial over the rank's domain points); a global all-reduce of the
  zero-padded matrix completes it everywhere, summing domains within a
  group and merging row strips across groups.
* :meth:`BandRingExecutor.rotate` — the rotate phase.  Each rank
  accumulates its group's rows of ``R @ states`` from the circulating
  blocks; no reduction is needed since rotation is local to each domain.

:func:`band_axis_sum` handles the remaining cross-group reduction the
SCF needs (e.g. the density, which every group only knows its own bands'
share of): an exchange among a rank's *band peers* — the same domain in
every group — summed in group-index order so all peers end up with
bitwise-identical results.

Everything degenerates cleanly at ``nb = 1``: the plan holds a single
:class:`PartialGemm` per phase and no ring steps, so ``band_matrix`` is
one local GEMM + all-reduce and ``rotate`` one local GEMM.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.core.engine import _step_info
from repro.core.schedule import (
    OVERLAP_PHASE,
    ROTATE_PHASE,
    BandSchedulePlan,
    PartialGemm,
    PostRecv,
    PostSend,
)
from repro.core.workspace import Workspace
from repro.grid.bandgroups import BandGroups
from repro.transport.errors import RING_STAGES, TransportError, ring_tag

__all__ = [
    "BAND_REDUCE_PHASE",
    "BandRingExecutor",
    "band_axis_sum",
]

#: tag-space phase for :func:`band_axis_sum` exchanges (the plan's ring
#: phases use 0 and 1)
BAND_REDUCE_PHASE = 2


class BandRingExecutor:
    """Runs the compiled band plan's ring passes on real blocks.

    One executor serves one rank for a whole SCF run; the GEMM tiles go
    through a :class:`Workspace` arena so repeated subspace steps are
    allocation-free.  ``on_step`` (same signature as the stencil
    engine's hook: ``hook(step, worker, start, end)``) lets a
    :class:`repro.obs.spans.SpanTracer` record the executed steps.
    """

    def __init__(
        self,
        layout: BandGroups,
        plan: BandSchedulePlan,
        workspace: Optional[Workspace] = None,
        on_step: Optional[Callable] = None,
    ):
        if plan.layout != layout:
            raise ValueError(
                f"plan was compiled for {plan.layout.describe()}, "
                f"not {layout.describe()}"
            )
        self.layout = layout
        self.plan = plan
        self.workspace = workspace if workspace is not None else Workspace()
        self.on_step = on_step

    def _ring_walk(
        self, ep, phase: int, block: np.ndarray, gemm: Callable
    ) -> None:
        """Circulate ``block`` round this rank's band ring for ``phase``.

        Interprets the compiled phase's steps: ``PostSend`` passes the
        held block on to the next group's same-domain peer, ``PostRecv``
        posts the receive of the next block, ``WaitAll`` takes that
        block in hand, and ``PartialGemm`` calls ``gemm(src_bands,
        held)`` with the band slice the held block carries.  A transport
        failure is attributed to the step being interpreted, as in the
        stencil engine (its ``peer`` is a band group).
        """
        lay = self.layout
        domain = lay.domain_of(ep.rank)
        m = lay.bands_per_group
        held = block
        pending = None
        for st in self.plan.phase_steps(lay.group_of(ep.rank), phase):
            t0 = time.perf_counter() if self.on_step else 0.0
            try:
                if isinstance(st, PostSend):
                    ep.isend(lay.rank_of(st.dst, domain), held, tag=st.tag)
                elif isinstance(st, PostRecv):
                    pending = ep.irecv(src=lay.rank_of(st.src, domain), tag=st.tag)
                elif isinstance(st, PartialGemm):
                    gemm(lay.bands_of(st.src_group), held)
                else:  # WaitAll: the next block has to be in hand
                    held = pending.wait().reshape(m, -1)
                    pending = None
            except TransportError as exc:
                exc.attach_step(_step_info(ep.rank, 0, st, []))
                raise
            if self.on_step:
                self.on_step(st, 0, t0, time.perf_counter())

    # -- overlap phase ------------------------------------------------------
    def band_matrix(
        self, ep, left: np.ndarray, right: np.ndarray, h3: float
    ) -> np.ndarray:
        """This rank's partial of ``M[i, j] = <left_i | right_j> h3``.

        ``left`` and ``right`` are ``(bands_per_group, points)`` row
        stacks of the rank's own band blocks; ``left`` stays put while
        ``right`` circulates the ring.  Returns a zero-padded ``G x G``
        array with only this group's rows filled and only this domain's
        points summed — callers complete it with one *global* all-reduce
        over every rank.
        """
        lay = self.layout
        m = lay.bands_per_group
        my = lay.bands_of(lay.group_of(ep.rank))
        out = np.zeros((lay.n_bands, lay.n_bands), dtype=left.dtype)
        tile = self.workspace.borrow((m, m), left.dtype)

        def gemm(src: slice, held: np.ndarray) -> None:
            np.matmul(left, held.T, out=tile)
            np.multiply(tile, h3, out=tile)
            out[my.start : my.stop, src.start : src.stop] = tile

        try:
            self._ring_walk(ep, OVERLAP_PHASE, right, gemm)
        finally:
            self.workspace.release(tile)
        return out

    # -- rotate phase --------------------------------------------------------
    def rotate(self, ep, rotation: np.ndarray, local: np.ndarray) -> np.ndarray:
        """This group's rows of ``rotation @ states``.

        ``rotation`` is the full ``G x G`` matrix (identical on every
        rank after the eigensolve of an all-reduced band matrix);
        ``local`` is the ``(bands_per_group, points)`` stack of the
        rank's current blocks, which circulates the ring while each
        stage accumulates ``rotation[my rows, held rows] @ held``.  The
        result is complete without any reduction — rotation mixes bands,
        not domains.
        """
        my = self.layout.bands_of(self.layout.group_of(ep.rank))
        acc = np.zeros_like(local)
        tmp = self.workspace.borrow(local.shape, local.dtype)

        def gemm(src: slice, held: np.ndarray) -> None:
            u = rotation[my.start : my.stop, src.start : src.stop]
            np.matmul(u, held, out=tmp)
            np.add(acc, tmp, out=acc)

        try:
            self._ring_walk(ep, ROTATE_PHASE, local, gemm)
        finally:
            self.workspace.release(tmp)
        return acc


def band_axis_sum(
    ep, layout: BandGroups, array: np.ndarray, round_id: int = 0
) -> np.ndarray:
    """Sum ``array`` across the rank's band peers, deterministically.

    Band peers are the ranks holding the *same domain* in every band
    group (:meth:`BandGroups.band_peers`).  Each peer contributes its
    partial and all of them accumulate the ``nb`` pieces in group-index
    order, so every peer produces a bitwise-identical total — the
    property that keeps the groups in lockstep when the density is
    summed, and when group 0's Poisson solution is handed to the other
    groups (which contribute zeros).  With one group this is the identity.
    """
    if layout.n_groups == 1:
        return array
    rank = ep.rank
    tag = ring_tag(BAND_REDUCE_PHASE, round_id % RING_STAGES)
    peers = layout.band_peers(rank)
    for peer in peers:
        if peer != rank:
            ep.isend(peer, array, tag=tag)
    parts = {layout.group_of(rank): array}
    for peer in peers:
        if peer != rank:
            parts[layout.group_of(peer)] = ep.recv(src=peer, tag=tag)
    total = np.zeros_like(array)
    for group in sorted(parts):
        total += parts[group]
    return total
