"""Real-space grids, domain decomposition, and halo exchange geometry.

This package is GPAW's grid substrate (section IV of the paper):

* :class:`~repro.grid.grid.GridDescriptor` — a uniform 3D real-space grid
  with per-axis periodic/zero boundary conditions.
* :class:`~repro.grid.decompose.Decomposition` — the division of a grid
  into ``P`` quadrilateral blocks, choosing the process-grid factorization
  that minimizes the aggregated block surface (GPAW's default rule).
* :mod:`repro.grid.halo` — the halo-exchange geometry: which slab of which
  local array goes to which neighbour, for a stencil of a given radius.
* :mod:`repro.grid.array` — local padded arrays plus scatter/gather between
  a global array and its distributed blocks.
"""

from repro.grid.grid import GridDescriptor
from repro.grid.decompose import Decomposition
from repro.grid.bandgroups import BandGroups
from repro.grid.halo import HaloSpec, HaloMessage, halo_messages
from repro.grid.array import LocalGrid, scatter, gather
from repro.grid.redistribute import (
    BandMove,
    Transfer,
    band_regroup_plan,
    transfer_plan,
)

__all__ = [
    "GridDescriptor",
    "Decomposition",
    "BandGroups",
    "HaloSpec",
    "HaloMessage",
    "halo_messages",
    "LocalGrid",
    "scatter",
    "gather",
    "BandMove",
    "Transfer",
    "band_regroup_plan",
    "transfer_plan",
]
