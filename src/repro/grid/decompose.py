"""Domain decomposition of real-space grids.

GPAW divides every grid into ``P`` quadrilateral blocks — *the same* blocks
for every grid in the simulation, because operations like wave-function
orthogonalization need matching subsets (section IV).  Without a
user-supplied layout it picks the 3-factorization of ``P`` minimizing the
aggregated block surface, which minimizes halo-exchange volume.

The surface accounting here feeds three consumers:

* the functional engine (which slabs to exchange),
* the analytic performance model (bytes per message / per node), and
* the Fig 6 "communication per node" curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.grid.grid import GridDescriptor
from repro.util.factorize import balanced_partition, best_grid_factorization, chunk_offsets
from repro.util.validation import check_positive_int, check_shape3


def surface_objective(grid_shape: tuple[int, int, int]):
    """The objective GPAW minimizes: aggregated block surface.

    For a candidate process grid ``(px, py, pz)`` the ideal block is
    ``(nx/px, ny/py, nz/pz)``; its surface is twice the sum of pairwise
    face areas, and all ``P`` blocks together have ``P`` times that.
    Constant factors do not change the argmin, so they are dropped.
    """
    nx, ny, nz = grid_shape

    def objective(f: tuple[int, int, int]) -> float:
        px, py, pz = f
        bx, by, bz = nx / px, ny / py, nz / pz
        return (bx * by + by * bz + bx * bz) * px * py * pz

    return objective


@dataclass(frozen=True)
class Decomposition:
    """A grid divided into an ``(px, py, pz)`` process grid of blocks.

    Parameters
    ----------
    grid:
        The global grid descriptor.
    n_domains:
        Number of blocks (MPI processes in flat mode, nodes in hybrid mode).
    domains_shape:
        Explicit process grid; by default the surface-minimizing
        factorization of ``n_domains`` is chosen.
    """

    grid: GridDescriptor
    n_domains: int
    domains_shape: Optional[tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        check_positive_int(self.n_domains, "n_domains")
        if self.domains_shape is None:
            shape = best_grid_factorization(
                self.n_domains, surface_objective(self.grid.shape)
            )
            object.__setattr__(self, "domains_shape", shape)
        else:
            shape = check_shape3(self.domains_shape, "domains_shape")
            if shape[0] * shape[1] * shape[2] != self.n_domains:
                raise ValueError(
                    f"domains_shape {shape} does not factor n_domains={self.n_domains}"
                )
            object.__setattr__(self, "domains_shape", shape)
        for axis in range(3):
            if self.domains_shape[axis] > self.grid.shape[axis]:
                raise ValueError(
                    f"axis {axis}: cannot split {self.grid.shape[axis]} points "
                    f"into {self.domains_shape[axis]} domains"
                )

    # -- block geometry -----------------------------------------------------
    @cached_property
    def _axis_sizes(self) -> tuple[list[int], list[int], list[int]]:
        return tuple(  # type: ignore[return-value]
            balanced_partition(n, p)
            for n, p in zip(self.grid.shape, self.domains_shape)
        )

    @cached_property
    def _axis_offsets(self) -> tuple[list[int], list[int], list[int]]:
        return tuple(chunk_offsets(sizes) for sizes in self._axis_sizes)  # type: ignore[return-value]

    def coords_of(self, domain: int) -> tuple[int, int, int]:
        """Domain index -> process-grid coordinates (C order)."""
        px, py, pz = self.domains_shape
        if not 0 <= domain < self.n_domains:
            raise ValueError(f"domain {domain} outside 0..{self.n_domains - 1}")
        x, rem = divmod(domain, py * pz)
        y, z = divmod(rem, pz)
        return (x, y, z)

    def domain_at(self, coords: Sequence[int]) -> int:
        """Process-grid coordinates -> domain index."""
        x, y, z = coords
        px, py, pz = self.domains_shape
        if not (0 <= x < px and 0 <= y < py and 0 <= z < pz):
            raise ValueError(f"coords {(x, y, z)} outside process grid {self.domains_shape}")
        return (x * py + y) * pz + z

    def block_shape(self, domain: int) -> tuple[int, int, int]:
        """Local point counts of one block."""
        c = self.coords_of(domain)
        return tuple(self._axis_sizes[d][c[d]] for d in range(3))  # type: ignore[return-value]

    def block_slices(self, domain: int) -> tuple[slice, slice, slice]:
        """Slices of the global array covered by one block."""
        c = self.coords_of(domain)
        out = []
        for d in range(3):
            off = self._axis_offsets[d][c[d]]
            out.append(slice(off, off + self._axis_sizes[d][c[d]]))
        return tuple(out)  # type: ignore[return-value]

    def neighbor(self, domain: int, dim: int, step: int) -> Optional[int]:
        """Neighbouring domain along ``dim``; wraps on periodic axes.

        Returns None past a non-periodic boundary.  A periodic axis with a
        single domain returns the domain itself (self-exchange).
        """
        if dim not in (0, 1, 2):
            raise ValueError(f"dim must be 0, 1 or 2, got {dim}")
        if step not in (-1, +1):
            raise ValueError(f"step must be -1 or +1, got {step}")
        c = list(self.coords_of(domain))
        c[dim] += step
        size = self.domains_shape[dim]
        if not 0 <= c[dim] < size:
            if not self.grid.pbc[dim]:
                return None
            c[dim] %= size
        return self.domain_at(c)

    # -- surface / communication accounting --------------------------------
    def face_points(self, domain: int, dim: int) -> int:
        """Points in one face of a block perpendicular to ``dim``."""
        shape = self.block_shape(domain)
        return shape[(dim + 1) % 3] * shape[(dim + 2) % 3]

    def send_bytes(self, domain: int, dim: int, step: int, halo_width: int) -> int:
        """Bytes sent to the ``(dim, step)`` neighbour in one exchange.

        Zero if there is no neighbour (non-periodic wall) or the neighbour
        is the domain itself (periodic wrap handled by a local copy).
        """
        check_positive_int(halo_width, "halo_width")
        nb = self.neighbor(domain, dim, step)
        if nb is None or nb == domain:
            return 0
        return self.face_points(domain, dim) * halo_width * self.grid.bytes_per_point

    def comm_bytes(self, domain: int, halo_width: int) -> int:
        """Total bytes one domain sends in one full halo exchange."""
        return sum(
            self.send_bytes(domain, dim, step, halo_width)
            for dim in range(3)
            for step in (+1, -1)
        )

    def max_block_points(self) -> int:
        """Points in the largest block (per-process compute load)."""
        return (
            self._axis_sizes[0][0] * self._axis_sizes[1][0] * self._axis_sizes[2][0]
        )
