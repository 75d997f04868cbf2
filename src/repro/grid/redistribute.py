"""Redistribution of a distributed grid between two decompositions.

GPAW does not keep one layout forever: the FD operation wants compact 3D
blocks, dense linear algebra (ScaLAPACK) wants 2D-cyclic matrices, and
restart files want slabs.  The bridge is a redistribution: every rank
intersects its old block with every new block, ships the intersections,
and assembles its new block.

The implementation is geometry-first: :func:`transfer_plan` computes the
exact set of (source rank, destination rank, global-slab) triples — a
pure function that tests can verify tiles the grid — and
:func:`repro.dft.checkpoint.redistribute_blocks` executes a plan as slab
copies when a checkpoint is restarted on a new layout.

The band axis gets the same treatment: :func:`band_regroup_plan` maps
every global band from its slot under one :class:`~repro.grid.bandgroups
.BandGroups` layout to its slot under another — the geometry a
band-group-aware shrink restart composes with :func:`transfer_plan`
(domains re-sliced per group, bands re-gathered per new group).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grid.bandgroups import BandGroups
from repro.grid.decompose import Decomposition

Slices3 = tuple[slice, slice, slice]


@dataclass(frozen=True)
class Transfer:
    """One piece of a redistribution: a global-coordinate slab moving
    from ``src`` (old layout) to ``dst`` (new layout)."""

    src: int
    dst: int
    global_slices: Slices3


def _intersect(a: Slices3, b: Slices3) -> Slices3 | None:
    out = []
    for sa, sb in zip(a, b):
        lo, hi = max(sa.start, sb.start), min(sa.stop, sb.stop)
        if lo >= hi:
            return None
        out.append(slice(lo, hi))
    return tuple(out)  # type: ignore[return-value]


def transfer_plan(old: Decomposition, new: Decomposition) -> list[Transfer]:
    """All slabs that must move to turn layout ``old`` into ``new``.

    Self-transfers (src == dst) are included — they are local copies the
    executor performs without messages.
    """
    if old.grid.shape != new.grid.shape or old.grid.dtype != new.grid.dtype:
        raise ValueError(
            "redistribution requires identical grid descriptors; got "
            f"{old.grid.shape}/{old.grid.dtype} vs {new.grid.shape}/{new.grid.dtype}"
        )
    plan: list[Transfer] = []
    for src in range(old.n_domains):
        src_slices = old.block_slices(src)
        for dst in range(new.n_domains):
            inter = _intersect(src_slices, new.block_slices(dst))
            if inter is not None:
                plan.append(Transfer(src=src, dst=dst, global_slices=inter))
    return plan


@dataclass(frozen=True)
class BandMove:
    """One band's slot change between two :class:`BandGroups` layouts.

    Band ``band`` sits at local index ``src_index`` inside group
    ``src_group``'s contiguous stack under the old layout, and at
    ``dst_index`` inside ``dst_group`` under the new one.  Domain
    re-slicing is orthogonal and handled by :func:`transfer_plan`.
    """

    band: int
    src_group: int
    src_index: int
    dst_group: int
    dst_index: int


def band_regroup_plan(old: BandGroups, new: BandGroups) -> list[BandMove]:
    """Where every band moves when the group layout changes.

    Pure geometry, one entry per global band, in band order — tests can
    verify the moves are a bijection that exactly partitions the band
    axis under both layouts.  Any ``(old, new)`` pair over the same band
    count is valid: growing, shrinking or re-slicing the group count
    (``nb' <= nb`` is the recovery path, but the plan is direction-
    agnostic).
    """
    if old.n_bands != new.n_bands:
        raise ValueError(
            f"band regroup requires identical band counts; got "
            f"{old.n_bands} vs {new.n_bands}"
        )
    return [
        BandMove(
            band=b,
            src_group=old.group_of_band(b),
            src_index=b - old.group_of_band(b) * old.bands_per_group,
            dst_group=new.group_of_band(b),
            dst_index=b - new.group_of_band(b) * new.bands_per_group,
        )
        for b in range(old.n_bands)
    ]

