"""Grid operators: the FD Laplacian and the kinetic-energy operator.

These wrap the raw stencil kernels with a grid descriptor (shape, spacing,
boundary conditions), giving the DFT layer operator objects it can apply,
compose and hand to iterative solvers.
"""

from __future__ import annotations

import numpy as np

from repro.grid.grid import GridDescriptor
from repro.stencil.coefficients import StencilCoefficients, laplacian_coefficients
from repro.stencil.kernel import apply_stencil_global


class Laplacian:
    """The finite-difference Laplacian on a grid descriptor."""

    def __init__(self, grid: GridDescriptor, radius: int = 2):
        self.grid = grid
        self.radius = radius
        self.coeffs: StencilCoefficients = laplacian_coefficients(
            radius, spacing=grid.spacing
        )

    def apply(
        self,
        array: np.ndarray,
        out: np.ndarray | None = None,
        workspace=None,
    ) -> np.ndarray:
        """laplace(array) with the descriptor's boundary conditions.

        ``out`` receives the result in place; with a
        :class:`repro.core.workspace.Workspace` the kernel's shifted-grid
        and scratch buffers are borrowed from the arena instead of
        allocated, making repeated applications (Jacobi smoothing, SCF
        residuals) allocation-free.  Results are bit-identical on every
        path.
        """
        self.grid.check_array(array)
        if workspace is None:
            return apply_stencil_global(
                array, self.coeffs, pbc=self.grid.pbc, out=out
            )
        shape, dtype = array.shape, array.dtype
        scratch = workspace.borrow(shape, dtype)
        t1 = workspace.borrow(shape, dtype)
        t2 = workspace.borrow(shape, dtype)
        try:
            return apply_stencil_global(
                array, self.coeffs, pbc=self.grid.pbc, out=out,
                scratch=scratch, term_buf=t1, term_buf2=t2,
            )
        finally:
            workspace.release(t2)
            workspace.release(t1)
            workspace.release(scratch)

    def __call__(self, array: np.ndarray) -> np.ndarray:
        return self.apply(array)

    @property
    def diagonal(self) -> float:
        """The operator's diagonal element (used by Jacobi smoothers)."""
        return self.coeffs.center


class Kinetic:
    """The kinetic-energy operator ``-1/2 laplace`` (atomic units).

    It uses the paper's radius-2 stencil.
    """

    def __init__(self, grid: GridDescriptor):
        self.grid = grid
        self.coeffs = laplacian_coefficients(2, spacing=grid.spacing).scale(-0.5)

    def apply(self, array: np.ndarray) -> np.ndarray:
        self.grid.check_array(array)
        return apply_stencil_global(array, self.coeffs, pbc=self.grid.pbc)

    def __call__(self, array: np.ndarray) -> np.ndarray:
        return self.apply(array)
