"""A small self-consistent field loop.

Model: interacting electrons in an external potential, Hartree mean field
(no exchange-correlation — this is a Hartree loop, the structural twin of
GPAW's SCF cycle and enough to exercise every substrate: the eigensolver
applies the FD stencil to every band, the Poisson solver applies it to the
potential grid, and the density/orthogonalization steps tie the bands
together).

Algorithm per iteration:

1. diagonalize ``H[V_ext + V_H]`` for the lowest bands,
2. build the density from the occupied states,
3. solve Poisson for the new Hartree potential,
4. mix linearly with the previous potential,
5. stop when the density change drops below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.jobspec import JobSpec, ProblemSpec, RuntimeSpec
from repro.dft.density import density_from_states
from repro.dft.eigensolver import lowest_eigenstates
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.poisson import PoissonSolver
from repro.grid.grid import GridDescriptor


@dataclass
class SCFResult:
    """Converged (or last) state of the loop."""

    energies: np.ndarray  # band energies of the final iteration
    states: np.ndarray  # final wave functions
    density: np.ndarray
    hartree_potential: np.ndarray
    iterations: int
    converged: bool
    density_change_history: list[float] = field(default_factory=list)
    #: total energy with double-counting corrections:
    #: sum_n f_n eps_n - E_Hartree + (E_xc - int v_xc rho)
    total_energy: float = 0.0


class SCFLoop:
    """Self-consistent Hartree loop on a real-space grid."""

    def __init__(
        self,
        grid: GridDescriptor,
        external_potential: np.ndarray,
        n_bands: int,
        occupations: np.ndarray | list[float] | None = None,
        mixing: float = 0.5,
        tolerance: float = 1e-5,
        max_iterations: int = 50,
        eig_tol: float = 1e-7,
        xc: str = "none",
        eigensolver: str = "arpack",
    ):
        grid.check_array(external_potential, "external_potential")
        # The shared spec constructors carry all the validation (positive
        # band count, mixing in (0, 1], known xc, known eigensolver) —
        # eig_tol/eigensolver are RuntimeSpec fields, so a restart
        # reconstructs them from the snapshot's embedded spec.
        self.spec = JobSpec(
            problem=ProblemSpec.from_grid(grid, n_bands),
            runtime=RuntimeSpec(
                tolerance=tolerance,
                max_iterations=max_iterations,
                mixing=mixing,
                xc=xc,
                eig_tol=eig_tol,
                eigensolver=eigensolver,
            ),
        )
        self.eigensolver = self.spec.runtime.eigensolver
        self.grid = grid
        self.v_ext = external_potential
        self.n_bands = n_bands
        self.occupations = occupations
        self.mixing = mixing
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.eig_tol = eig_tol
        self.xc = xc
        self.poisson = PoissonSolver(grid, tolerance=1e-8)

    def _xc_potential(self, rho: np.ndarray) -> np.ndarray:
        if self.xc == "lda":
            from repro.dft.xc import lda_potential

            return lda_potential(rho)
        return np.zeros_like(rho)

    def run(self) -> SCFResult:
        """Iterate to self-consistency."""
        v_hartree = self.grid.zeros()
        rho_old: np.ndarray | None = None
        history: list[float] = []
        h3 = self.grid.spacing ** 3
        base = Hamiltonian(self.grid, self.v_ext)

        energies = np.zeros(self.n_bands)
        states = np.zeros((self.n_bands,) + self.grid.shape)
        rho = self.grid.zeros()
        v_xc = self.grid.zeros()
        prev_states: np.ndarray | None = None
        for it in range(1, self.max_iterations + 1):
            h = base.with_potential(self.v_ext + v_hartree + v_xc)
            if self.eigensolver == "rmm-diis":
                from repro.dft.rmm_diis import RmmDiis

                solver = RmmDiis(
                    h, self.n_bands, tolerance=max(self.eig_tol, 1e-8),
                    max_iterations=400 if prev_states is None else 60,
                    initial_states=prev_states,
                )
                result = solver.run()
                energies, states = result.energies, result.states
            else:
                eig = lowest_eigenstates(h, self.n_bands, tol=self.eig_tol)
                energies, states = eig.energies, eig.states
            prev_states = states
            rho = density_from_states(self.grid, states, self.occupations)

            if rho_old is not None:
                change = float(np.abs(rho - rho_old).sum() * h3)
                history.append(change)
                if change < self.tolerance:
                    return SCFResult(
                        energies, states, rho, v_hartree, it, True, history,
                        self._total_energy(energies, rho, v_hartree, v_xc),
                    )
            rho_old = rho

            target = self.poisson.solve(rho, initial=v_hartree).potential
            v_hartree = (1 - self.mixing) * v_hartree + self.mixing * target
            v_xc = (1 - self.mixing) * v_xc + self.mixing * self._xc_potential(rho)

        return SCFResult(
            energies, states, rho, v_hartree, self.max_iterations, False, history,
            self._total_energy(energies, rho, v_hartree, v_xc),
        )

    def _total_energy(
        self,
        energies: np.ndarray,
        rho: np.ndarray,
        v_hartree: np.ndarray,
        v_xc: np.ndarray,
    ) -> float:
        """Band-sum energy with the standard double-counting corrections.

        The band eigenvalues count the Hartree interaction twice (each
        electron sees the full density including itself-as-part-of-rho),
        so half the Hartree integral is subtracted; the XC potential term
        is replaced by the XC energy.
        """
        h3 = self.grid.spacing ** 3
        occ = (
            np.full(self.n_bands, 2.0)
            if self.occupations is None
            else np.asarray(self.occupations, dtype=float)
        )
        band_sum = float(np.dot(occ, energies))
        e_hartree = 0.5 * float((rho * v_hartree).sum() * h3)
        correction = -e_hartree
        if self.xc == "lda":
            from repro.dft.xc import lda_energy

            correction += lda_energy(rho, self.grid.spacing) - float(
                (v_xc * rho).sum() * h3
            )
        return band_sum + correction
