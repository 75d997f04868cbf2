"""Distributed Poisson solving on top of the FD engine.

GPAW's Poisson equation is the *other* consumer of the paper's stencil
(section II) — and unlike the wave-function workload it has exactly one
grid, so batching cannot help and every stencil application pays its
halo exchange in line.  What can be cut is the *number* of applications
and synchronisation points: the solver is conjugate gradients on the SPD
operator ``-laplace`` in the single-reduction (Chronopoulos-Gear) form.
Per iteration:

* one :class:`~repro.core.engine.DistributedStencil` application — one
  halo exchange, under any approach's schedule (results are identical),
* one fused allreduce of ``[r.r, r.Ar]``; step lengths, the stopping test
  and the breakdown test all derive from it, so every rank takes the
  same decision in the same iteration,
* in-place updates of vectors borrowed from the engine's
  :class:`~repro.core.workspace.Workspace` — no steady-state allocation.

It is the library's end-to-end composition test: a real PDE solved by
the distributed engine must reproduce the sequential multigrid solution
and depend on the rank count only through reduction round-off.
"""

from __future__ import annotations

import numpy as np

from repro.core.approaches import Approach, FLAT_OPTIMIZED
from repro.core.engine import DistributedStencil
from repro.grid.array import LocalGrid
from repro.grid.decompose import Decomposition
from repro.grid.grid import GridDescriptor
from repro.grid.halo import HaloSpec
from repro.stencil.coefficients import laplacian_coefficients
from repro.transport.inproc import RankEndpoint


class PoissonBreakdownError(ArithmeticError):
    """CG cannot continue; every rank raises it in the same iteration.

    Positive-definiteness was lost or a reduction came back non-finite
    (e.g. NaN in ``rho``).
    """


class DistributedPoissonSolver:
    """Conjugate-gradient Poisson solver over a rank set.

    Solves ``laplace(phi) = -4 pi rho`` with the distributed stencil.
    CG (not multigrid) keeps every iteration one pure stencil application
    — the workload profile the paper's Poisson discussion assumes.  A
    solve of ``sweeps = k`` iterations costs ``k + 1`` applications and
    ``k + 1`` allreduces (plus two mean projections when fully periodic).
    """

    def __init__(
        self,
        grid: GridDescriptor,
        n_ranks: int,
        tolerance: float = 1e-6,
        max_sweeps: int = 5000,
        approach: Approach = FLAT_OPTIMIZED,
    ):
        self.grid = grid
        self.decomp = Decomposition(grid, n_ranks)
        self.coeffs = laplacian_coefficients(2, spacing=grid.spacing)
        self.engine = DistributedStencil(self.decomp, self.coeffs)
        self.halo = HaloSpec(2)
        self.tolerance = tolerance
        self.max_sweeps = max_sweeps
        self.approach = approach
        # Compile the exchange schedule once up front; every iteration's
        # apply() re-executes this plan via the cache (one grid: the
        # Poisson workload batching cannot help).
        self.plan = self.engine.plan_for(approach, 1)

    @property
    def fully_periodic(self) -> bool:
        return all(self.grid.pbc)

    # -- per-rank worker ---------------------------------------------------------
    def _rank_solve(
        self, ep: RankEndpoint, rho_blocks: list[LocalGrid]
    ) -> tuple[LocalGrid, float, int, bool]:
        rank, ws = ep.rank, self.engine.workspace
        block = self.decomp.block_shape(rank)
        padded = self.halo.padded_shape(block)
        borrowed = [ws.borrow(padded), ws.borrow(padded)] + [
            ws.borrow(block) for _ in range(3)
        ]
        try:
            return self._cg(ep, rho_blocks[rank].interior, *borrowed)
        finally:
            for buf in borrowed:
                ws.release(buf)

    def _cg(self, ep, rho, r_data, w_data, p, s, tmp):
        """CG for ``A x = 4 pi rho`` with ``A = -laplace``: ``r`` is the
        residual, ``w = laplace(r)``, ``p`` the search direction and
        ``s = laplace(p)`` by recurrence, so ``A`` is applied once."""
        r_data.fill(0.0)  # stale arena contents must not reach the ghosts
        phi = LocalGrid(self.decomp, ep.rank, self.halo)
        grids = {0: LocalGrid(self.decomp, ep.rank, self.halo, r_data)}
        out = {0: LocalGrid(self.decomp, ep.rank, self.halo, w_data)}
        x, r, w = phi.interior, grids[0].interior, out[0].interior
        np.multiply(rho, 4.0 * np.pi, out=r)
        if self.fully_periodic:
            # neutralizing background: project the mean out of the rhs
            r -= ep.allreduce(float(r.sum()))[0] / self.grid.n_points
        p.fill(0.0)
        s.fill(0.0)
        rhs_norm = gamma = alpha = 0.0
        for sweep in range(self.max_sweeps + 1):
            self.engine.apply(ep, grids, approach=self.approach, out=out)
            g, d = ep.allreduce(np.array([
                np.multiply(r, r, out=tmp).sum(),
                -np.multiply(r, w, out=tmp).sum(),
            ]))  # [r.r, r.Ar]
            if sweep == 0:
                rhs_norm, beta, curvature = float(np.sqrt(g)), 0.0, d
            else:
                beta = g / gamma
                curvature = d - beta * g / alpha  # p.Ap of the new p
            if not np.isfinite(g + d) or (g > 0.0 and min(d, curvature) <= 0.0):
                raise PoissonBreakdownError(
                    f"CG breakdown in iteration {sweep}: r.r = {g}, "
                    f"r.Ar = {d}, p.Ap = {curvature}"
                )
            residual_norm = float(np.sqrt(g))
            converged = residual_norm <= self.tolerance * rhs_norm
            if converged or sweep == self.max_sweeps:
                break
            gamma, alpha = g, g / curvature
            p *= beta
            p += r
            s *= beta
            s += w
            x += np.multiply(p, alpha, out=tmp)
            r += np.multiply(s, alpha, out=tmp)
        if self.fully_periodic:
            x -= ep.allreduce(float(x.sum()))[0] / self.grid.n_points
        return phi, residual_norm, sweep, converged
