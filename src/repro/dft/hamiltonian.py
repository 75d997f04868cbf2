"""The Kohn-Sham-style Hamiltonian: ``H = -1/2 laplace + V(r)``.

Atomic units throughout.  ``V`` is any local potential on the grid — an
external confinement, the Hartree potential from the Poisson solver, or
their sum in the SCF loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dft.operators import Kinetic
from repro.grid.grid import GridDescriptor

if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator


class Hamiltonian:
    """A one-particle FD Hamiltonian on a real-space grid."""

    def __init__(
        self,
        grid: GridDescriptor,
        potential: np.ndarray | None = None,
    ):
        self.grid = grid
        self.kinetic = Kinetic(grid)
        if potential is None:
            potential = grid.zeros()
        grid.check_array(potential, "potential")
        self.potential = potential

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``H psi`` for one wave function."""
        self.grid.check_array(psi, "psi")
        return self.kinetic.apply(psi) + self.potential * psi

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self.apply(psi)

    def apply_all(self, psis: np.ndarray) -> np.ndarray:
        """``H`` applied to a stack of wave functions (bands, nx, ny, nz)."""
        return np.stack([self.apply(p) for p in psis])

    def as_linear_operator(self) -> LinearOperator:
        """SciPy view of H for iterative eigensolvers.

        SciPy is imported here, on first use, so importing the DFT layer
        does not load it.
        """
        from scipy.sparse.linalg import LinearOperator

        n = self.grid.n_points
        shape = self.grid.shape
        dtype = self.grid.dtype

        def matvec(x: np.ndarray) -> np.ndarray:
            return self.apply(x.reshape(shape).astype(dtype, copy=False)).ravel()

        return LinearOperator((n, n), matvec=matvec, dtype=dtype)

    def with_potential(self, potential: np.ndarray) -> "Hamiltonian":
        """A Hamiltonian sharing this one's kinetic part (SCF updates)."""
        h = Hamiltonian.__new__(Hamiltonian)
        h.grid = self.grid
        h.kinetic = self.kinetic
        self.grid.check_array(potential, "potential")
        h.potential = potential
        return h
