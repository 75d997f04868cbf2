"""Halo-exchange geometry on padded local arrays.

Each domain stores its block in an array padded by the stencil radius
``w`` on every side.  Before applying the stencil, the ghost shells must be
filled: interior faces come from neighbours (MPI messages, or local copies
for periodic wrap onto the same domain), non-periodic walls are zero.

Slab conventions (per axis, padded coordinates; ``b`` = block extent):

====================  =============================  ==========================
direction             send slab (my interior)         recv slab (my ghost)
====================  =============================  ==========================
to +axis neighbour    ``[b : b+w]``                   from -axis: ``[0 : w]``
to -axis neighbour    ``[w : 2w]``                    from +axis: ``[b+w : b+2w]``
====================  =============================  ==========================

Ghost corners are *not* exchanged: the paper's stencil is axis-aligned
(section II-A), so only face slabs are needed — the other two axes of every
slab span just the interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.grid.decompose import Decomposition
from repro.util.validation import check_positive_int

Slices3 = tuple[slice, slice, slice]


@dataclass(frozen=True)
class HaloSpec:
    """Stencil halo requirements: radius ``width`` in every direction."""

    width: int = 2

    def __post_init__(self) -> None:
        check_positive_int(self.width, "width")

    def padded_shape(self, block_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        w = self.width
        return tuple(b + 2 * w for b in block_shape)  # type: ignore[return-value]

    def interior(self, padded_shape: tuple[int, int, int]) -> Slices3:
        w = self.width
        return tuple(slice(w, s - w) for s in padded_shape)  # type: ignore[return-value]


@dataclass(frozen=True)
class HaloMessage:
    """One directed halo transfer between two domains (or a local wrap)."""

    dim: int
    step: int  # +1: data flows to the +dim neighbour
    src_domain: int
    dst_domain: int
    send_slices: Slices3  # on the source's padded array
    recv_slices: Slices3  # on the destination's padded array
    n_points: int
    nbytes: int

    @property
    def is_local_wrap(self) -> bool:
        """Periodic wrap onto the same domain: a memcpy, not a message."""
        return self.src_domain == self.dst_domain


def _axis_slab(
    block: tuple[int, int, int], width: int, dim: int, lo: int, hi: int
) -> Slices3:
    """A slab spanning [lo, hi) along ``dim`` and the interior elsewhere."""
    out = []
    for d in range(3):
        if d == dim:
            out.append(slice(lo, hi))
        else:
            out.append(slice(width, width + block[d]))
    return tuple(out)  # type: ignore[return-value]


def halo_messages(
    decomp: Decomposition, domain: int, width: int
) -> list[HaloMessage]:
    """All halo transfers *originating* at ``domain`` for radius ``width``.

    Every message appears exactly once across all domains (at its source),
    so iterating domains and collecting their outgoing messages enumerates
    the full exchange.
    """
    check_positive_int(width, "width")
    block = decomp.block_shape(domain)
    for axis in range(3):
        if decomp.domains_shape[axis] > 1 and block[axis] < width:
            raise ValueError(
                f"axis {axis}: block extent {block[axis]} is smaller than the "
                f"halo width {width}; use fewer domains along this axis"
            )
    w = width
    out: list[HaloMessage] = []
    for dim in range(3):
        b = block[dim]
        for step in (+1, -1):
            nb = decomp.neighbor(domain, dim, step)
            if nb is None:
                continue  # non-periodic wall: ghost stays zero
            nb_block = decomp.block_shape(nb)
            if step > 0:
                send = _axis_slab(block, w, dim, b, b + w)
                recv = _axis_slab(nb_block, w, dim, 0, w)
            else:
                send = _axis_slab(block, w, dim, w, 2 * w)
                recv = _axis_slab(nb_block, w, dim, nb_block[dim] + w, nb_block[dim] + 2 * w)
            n_points = w * block[(dim + 1) % 3] * block[(dim + 2) % 3]
            out.append(
                HaloMessage(
                    dim=dim,
                    step=step,
                    src_domain=domain,
                    dst_domain=nb,
                    send_slices=send,
                    recv_slices=recv,
                    n_points=n_points,
                    nbytes=n_points * decomp.grid.bytes_per_point,
                )
            )
    return out


def zero_boundary_ghosts(
    padded: np.ndarray, decomp: Decomposition, domain: int, width: int
) -> None:
    """Zero the ghost slabs that face a non-periodic wall.

    Interior faces (and periodic wraps) are filled by halo messages; this
    covers the remaining shells so the stencil sees GPAW's zero boundary.
    """
    w = width
    coords = decomp.coords_of(domain)
    for dim in range(3):
        if decomp.grid.pbc[dim]:
            continue
        sl: list[slice] = [slice(None)] * 3
        if coords[dim] == 0:
            sl[dim] = slice(0, w)
            padded[tuple(sl)] = 0.0
        if coords[dim] == decomp.domains_shape[dim] - 1:
            sl[dim] = slice(padded.shape[dim] - w, padded.shape[dim])
            padded[tuple(sl)] = 0.0


def apply_local_wraps(
    padded: np.ndarray, messages: list[HaloMessage]
) -> None:
    """Perform the memcpy part of an exchange: wraps onto the same domain."""
    for msg in messages:
        if msg.is_local_wrap:
            padded[msg.recv_slices] = padded[msg.send_slices]


def pack_slabs(
    sources: Sequence[np.ndarray], slices: Slices3, out: np.ndarray
) -> np.ndarray:
    """Pack one halo slab from each padded source array into ``out``.

    ``out`` has shape ``(len(sources), *slab_shape)`` — typically a
    contiguous message buffer borrowed from a workspace arena, so the
    batched slabs can be handed to the transport without further copies.
    """
    for i, src in enumerate(sources):
        np.copyto(out[i], src[slices])
    return out


def unpack_slabs(
    payload: np.ndarray, targets: Sequence[np.ndarray], slices: Slices3
) -> None:
    """Scatter a packed message back into each padded target's ghost slab.

    Inverse of :func:`pack_slabs`; ``payload`` may arrive flat (wire form)
    and is viewed as ``(len(targets), *slab_shape)``.
    """
    if not targets:
        return
    slab_shape = targets[0][slices].shape
    per_grid = payload.reshape((len(targets),) + slab_shape)
    for i, dst in enumerate(targets):
        dst[slices] = per_grid[i]
