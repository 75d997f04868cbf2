"""Solve the electrostatic Poisson equation for a Gaussian charge.

One of the two GPAW workloads that motivate the paper's stencil (section
II): the Hartree potential solves ``laplace(phi) = -4 pi rho`` by finite
differences.  This example builds a normalized Gaussian charge in an open
box, solves with the multigrid solver, and compares against the analytic
potential ``erf(r / sqrt(2) sigma) / r``.

Run:  python examples/poisson_solver.py
"""

import numpy as np
from scipy.special import erf

from repro.dft import Laplacian, PoissonSolver
from repro.grid import GridDescriptor


def main() -> None:
    gd = GridDescriptor((32, 32, 32), pbc=(False, False, False), spacing=0.5)
    sigma = 1.2

    x, y, z = gd.coordinates()
    centre = (gd.shape[0] + 1) * gd.spacing / 2
    r2 = (x - centre) ** 2 + (y - centre) ** 2 + (z - centre) ** 2
    rho = np.exp(-r2 / (2 * sigma**2)) / (sigma**3 * (2 * np.pi) ** 1.5)
    charge = rho.sum() * gd.spacing**3
    print(f"grid {gd.shape}, spacing {gd.spacing}, total charge {charge:.4f} e")

    result = PoissonSolver(gd, tolerance=1e-9).solve(rho)
    print(
        f"multigrid: converged={result.converged} "
        f"V-cycles={result.iterations} residual={result.residual_norm:.2e}"
    )

    # verify the PDE itself
    lhs = Laplacian(gd).apply(result.potential)
    rhs = -4 * np.pi * rho
    pde_err = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    print(f"relative PDE residual: {pde_err:.2e}")

    # compare with the analytic solution along the box diagonal
    r = np.sqrt(np.maximum(r2, 1e-12))
    exact = erf(r / (np.sqrt(2) * sigma)) / r
    print("\n  r (a.u.)   phi_fd     phi_exact  (zero-boundary box truncates ~0.12)")
    n = gd.shape[0]
    for i in range(n // 2, n, 3):
        print(
            f"  {r[i, i, i]:8.3f}  {result.potential[i, i, i]:9.5f}  "
            f"{exact[i, i, i]:9.5f}"
        )


if __name__ == "__main__":
    main()
