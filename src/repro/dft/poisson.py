"""Finite-difference Poisson solver: a multigrid V-cycle.

Solves ``laplace(phi) = -4 pi rho`` (Gaussian units, GPAW's convention for
the Hartree potential) with V-cycles: weighted-Jacobi smoothing on every
level, full-weighting restriction, trilinear prolongation, coarsest level
relaxed directly.  Converges in a handful of cycles on smooth problems.

Boundary conditions come from the grid descriptor: zero boundary for
finite systems, periodic for crystals.  A fully periodic problem is only
solvable when the total charge vanishes; the solver enforces a zero-mean
right-hand side (and potential) in that case, matching the physics of a
compensating background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.workspace import Workspace
from repro.dft.operators import Laplacian
from repro.grid.grid import GridDescriptor


@dataclass
class PoissonResult:
    """Solution + convergence record."""

    potential: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def _jacobi_sweeps(
    lap: Laplacian,
    phi: np.ndarray,
    rhs: np.ndarray,
    sweeps: int,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """``sweeps`` weighted-Jacobi iterations (weight 2/3) on
    laplace(phi) = rhs.

    Updates ``phi`` in place (every caller owns its array) and runs the
    residual through one :class:`Workspace`-borrowed buffer instead of
    allocating a fresh array per sweep; numerically bit-identical to the
    allocating formulation it replaces.
    """
    coef = 2 / 3 * (1.0 / lap.diagonal)
    ws = workspace if workspace is not None else Workspace()
    lap_buf = ws.borrow(phi.shape, phi.dtype)
    try:
        for _ in range(sweeps):
            lap.apply(phi, out=lap_buf, workspace=ws)
            np.subtract(rhs, lap_buf, out=lap_buf)
            lap_buf *= coef
            phi += lap_buf
    finally:
        ws.release(lap_buf)
    return phi


def _restrict(fine: np.ndarray) -> np.ndarray:
    """Full-weighting restriction by averaging 2^3 cells (even shapes)."""
    s = fine.shape
    return (
        fine.reshape(s[0] // 2, 2, s[1] // 2, 2, s[2] // 2, 2).mean(axis=(1, 3, 5))
    )


def _prolong_axis(a: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """Cell-centered linear interpolation doubling one axis.

    Fine cell ``2i`` sits a quarter-cell below coarse centre ``i``, fine
    cell ``2i+1`` a quarter above: values are ``3/4 a_i + 1/4 a_{i -/+ 1}``.
    Outside a zero-boundary grid the correction is zero; periodic wraps.
    """
    n = a.shape[axis]
    idx = np.arange(n)
    if periodic:
        prev = np.take(a, (idx - 1) % n, axis=axis)
        nxt = np.take(a, (idx + 1) % n, axis=axis)
    else:
        prev = np.take(a, np.maximum(idx - 1, 0), axis=axis)
        nxt = np.take(a, np.minimum(idx + 1, n - 1), axis=axis)
        # zero outside the domain: edge cells have no outer neighbour
        edge_lo = [slice(None)] * a.ndim
        edge_lo[axis] = slice(0, 1)
        edge_hi = [slice(None)] * a.ndim
        edge_hi[axis] = slice(n - 1, n)
        prev = prev.copy()
        nxt = nxt.copy()
        prev[tuple(edge_lo)] = 0.0
        nxt[tuple(edge_hi)] = 0.0
    even = 0.75 * a + 0.25 * prev
    odd = 0.75 * a + 0.25 * nxt
    out_shape = list(a.shape)
    out_shape[axis] = 2 * n
    out = np.empty(out_shape, dtype=a.dtype)
    sl_even = [slice(None)] * a.ndim
    sl_even[axis] = slice(0, 2 * n, 2)
    sl_odd = [slice(None)] * a.ndim
    sl_odd[axis] = slice(1, 2 * n, 2)
    out[tuple(sl_even)] = even
    out[tuple(sl_odd)] = odd
    return out


def _prolong(coarse: np.ndarray, pbc: tuple[bool, bool, bool]) -> np.ndarray:
    """Trilinear cell-centered prolongation (order 2, stable V-cycles)."""
    out = coarse
    for axis in range(3):
        out = _prolong_axis(out, axis, pbc[axis])
    return out


class PoissonSolver:
    """Multigrid solver for ``laplace(phi) = -4 pi rho``.

    One iteration is one V-cycle; :attr:`max_iterations` caps them.  The
    fine level is the paper's radius-2 stencil.
    """

    max_iterations = 500

    def __init__(self, grid: GridDescriptor, tolerance: float = 1e-8):
        self.grid = grid
        self.tolerance = tolerance
        self.laplacian = Laplacian(grid)
        #: the buffer arena every smoother sweep and residual borrows from
        self.workspace = Workspace()
        self._levels = self._build_levels()

    # -- setup --------------------------------------------------------------
    def _build_levels(self) -> list[Laplacian]:
        """Coarser Laplacians for the V-cycle (shape halved per level)."""
        levels = []
        shape = self.grid.shape
        spacing = self.grid.spacing
        while all(s % 2 == 0 and s // 2 >= 4 for s in shape):
            shape = tuple(s // 2 for s in shape)
            spacing *= 2
            coarse = GridDescriptor(
                shape, pbc=self.grid.pbc, spacing=spacing, dtype=self.grid.dtype
            )
            # radius-1 stencils are enough on coarse correction grids
            levels.append(Laplacian(coarse, radius=1))
        return levels

    @property
    def fully_periodic(self) -> bool:
        return all(self.grid.pbc)

    # -- solving -------------------------------------------------------------
    def solve(
        self, rho: np.ndarray, initial: np.ndarray | None = None
    ) -> PoissonResult:
        """Solve for the potential of charge density ``rho``."""
        self.grid.check_array(rho, "rho")
        rhs = -4.0 * np.pi * rho
        if self.fully_periodic:
            mean = rhs.mean()
            if abs(mean) > 1e-12 * max(1.0, float(np.abs(rhs).max())):
                # neutralizing background: subtract the mean (G=0 term)
                rhs = rhs - mean
        phi = (
            np.zeros_like(rhs)
            if initial is None
            else np.array(initial, dtype=rhs.dtype, copy=True)
        )
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return PoissonResult(phi, 0.0, 0, True)

        for it in range(1, self.max_iterations + 1):
            phi = self._v_cycle(0, phi, rhs)
            if self.fully_periodic:
                phi = phi - phi.mean()
            lap_buf = self.workspace.borrow(phi.shape, phi.dtype)
            try:
                self.laplacian.apply(phi, out=lap_buf,
                                     workspace=self.workspace)
                np.subtract(rhs, lap_buf, out=lap_buf)
                residual = float(np.linalg.norm(lap_buf))
            finally:
                self.workspace.release(lap_buf)
            if residual <= self.tolerance * rhs_norm:
                return PoissonResult(phi, residual, it, True)
        return PoissonResult(phi, residual, self.max_iterations, False)

    def _v_cycle(self, level: int, phi: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One V-cycle starting at ``level`` (0 = finest)."""
        lap = self.laplacian if level == 0 else self._levels[level - 1]
        ws = self.workspace
        phi = _jacobi_sweeps(lap, phi, rhs, sweeps=2, workspace=ws)
        if level < len(self._levels):
            coarse_lap = self._levels[level]
            lap_buf = ws.borrow(phi.shape, phi.dtype)
            try:
                lap.apply(phi, out=lap_buf, workspace=ws)
                np.subtract(rhs, lap_buf, out=lap_buf)
                coarse_rhs = _restrict(lap_buf)
            finally:
                ws.release(lap_buf)
            if all(coarse_lap.grid.pbc):
                coarse_rhs = coarse_rhs - coarse_rhs.mean()
            correction = self._v_cycle(
                level + 1, np.zeros_like(coarse_rhs), coarse_rhs
            )
            phi = phi + _prolong(correction, self.grid.pbc)
        phi = _jacobi_sweeps(lap, phi, rhs, sweeps=2, workspace=ws)
        return phi
