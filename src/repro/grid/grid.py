"""Grid descriptors: the geometry of one real-space grid.

A GPAW simulation carries one electron-density grid and thousands of
wave-function grids, all sharing one descriptor.  Points are real (8 B) or
complex (16 B); the paper's benchmarks use real grids of 144^3 and 192^3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import check_shape3


@dataclass(frozen=True)
class GridDescriptor:
    """A uniform 3D real-space grid.

    Parameters
    ----------
    shape:
        Global point counts ``(nx, ny, nz)``.
    pbc:
        Per-axis periodic boundary condition flags.  Periodic axes wrap the
        stencil around; non-periodic axes treat outside points as zero
        (GPAW's zero boundary for finite systems).
    spacing:
        Grid spacing ``h`` in atomic units (isotropic); enters the finite-
        difference coefficients as ``1/h^2``.
    dtype:
        ``float64`` or ``complex128``.
    """

    shape: tuple[int, int, int]
    pbc: tuple[bool, bool, bool] = (True, True, True)
    spacing: float = 0.2
    dtype: np.dtype = field(default=np.dtype(np.float64))

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", check_shape3(self.shape, "shape"))
        pbc = tuple(bool(p) for p in self.pbc)
        if len(pbc) != 3:
            raise ValueError(f"pbc must have 3 entries, got {self.pbc!r}")
        object.__setattr__(self, "pbc", pbc)
        if not self.spacing > 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")
        dtype = np.dtype(self.dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.complex128)):
            raise ValueError(f"dtype must be float64 or complex128, got {dtype}")
        object.__setattr__(self, "dtype", dtype)

    @property
    def n_points(self) -> int:
        """Total number of grid points."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def bytes_per_point(self) -> int:
        """8 for real grids, 16 for complex grids (section IV)."""
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Memory footprint of one grid."""
        return self.n_points * self.bytes_per_point

    def empty(self) -> np.ndarray:
        """An uninitialized array with this grid's shape and dtype."""
        return np.empty(self.shape, dtype=self.dtype)

    def zeros(self) -> np.ndarray:
        """A zero-filled array with this grid's shape and dtype."""
        return np.zeros(self.shape, dtype=self.dtype)

    def random(self, seed: int = 0) -> np.ndarray:
        """A reproducible random grid (useful in tests and benchmarks)."""
        rng = np.random.default_rng(seed)
        if self.dtype == np.dtype(np.complex128):
            return (
                rng.standard_normal(self.shape) + 1j * rng.standard_normal(self.shape)
            ).astype(self.dtype)
        return rng.standard_normal(self.shape).astype(self.dtype)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical coordinates of every point along each axis (open grids
        place points at ``h, 2h, ...``; periodic at ``0, h, ...``)."""
        axes = []
        for n, periodic in zip(self.shape, self.pbc):
            if periodic:
                axes.append(np.arange(n) * self.spacing)
            else:
                axes.append((np.arange(n) + 1) * self.spacing)
        return tuple(np.meshgrid(*axes, indexing="ij"))  # type: ignore[return-value]

    def check_array(self, array: np.ndarray, name: str = "array") -> None:
        """Validate that ``array`` belongs to this descriptor."""
        if array.shape != self.shape:
            raise ValueError(
                f"{name} has shape {array.shape}, descriptor expects {self.shape}"
            )
        if array.dtype != self.dtype:
            raise ValueError(
                f"{name} has dtype {array.dtype}, descriptor expects {self.dtype}"
            )
