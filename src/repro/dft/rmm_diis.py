"""RMM-DIIS: GPAW's residual-minimization eigensolver.

GPAW does not Lanczos-diagonalize its Hamiltonian; it iterates a band set
with *residual minimization* (RMM-DIIS), which is why the FD stencil is
applied to every wave function several times per SCF step — the workload
profile the whole-application model (:mod:`repro.core.wholeapp`)
parameterizes.  The structure per iteration:

1. **Rayleigh-Ritz** in the current band subspace: build
   ``H_sub = <psi_i|H|psi_j>``, diagonalize, rotate bands and ``H psi``.
2. **Residuals** ``R_n = H psi_n - eps_n psi_n`` per band.
3. **Precondition**: a few damped-Jacobi sweeps of the kinetic operator
   approximate ``(T + shift)^-1 R`` — the smooth, low-pass step direction
   GPAW's multigrid preconditioner produces.
4. **Line step** ``psi_n += lambda_n PR_n`` with the residual-minimizing
   step length, then re-orthonormalize (Löwdin).

Exact numerics (ARPACK) live in :mod:`repro.dft.eigensolver`; this module
is the faithful *algorithmic* counterpart and is validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dft.hamiltonian import Hamiltonian
from repro.dft.operators import Kinetic
from repro.dft.orthogonalize import lowdin
from repro.grid.grid import GridDescriptor


class KineticPreconditioner:
    """Approximate ``(T + shift)^-1`` by damped Jacobi sweeps.

    The kinetic operator's diagonal dominates at high frequency, so a few
    damped sweeps strongly attenuate exactly the residual components that
    make plain gradient steps diverge on fine grids.
    """

    shift = 1.0
    sweeps = 3
    omega = 2 / 3

    def __init__(self, grid: GridDescriptor):
        self.kinetic = Kinetic(grid)
        self._inv_diag = 1.0 / (self.kinetic.coeffs.center + self.shift)

    def apply(self, residual: np.ndarray) -> np.ndarray:
        """A smooth approximation to ``(T + shift)^-1 residual``."""
        x = self.omega * self._inv_diag * residual
        for _ in range(self.sweeps - 1):
            r = residual - (self.kinetic.apply(x) + self.shift * x)
            x = x + self.omega * self._inv_diag * r
        return x


@dataclass
class RmmDiisResult:
    """Converged (or last) band set."""

    energies: np.ndarray
    states: np.ndarray
    iterations: int
    converged: bool
    residual_history: list[float] = field(default_factory=list)


class RmmDiis:
    """Residual-minimization iteration for the lowest ``k`` bands."""

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        n_bands: int,
        tolerance: float = 1e-5,
        max_iterations: int = 200,
        initial_states: np.ndarray | None = None,
    ):
        """``initial_states`` warm-starts the iteration — the SCF loop
        feeds back the previous cycle's bands, which is how GPAW keeps
        RMM-DIIS cheap (a handful of sweeps per SCF step instead of a
        from-scratch diagonalization)."""
        if n_bands < 1:
            raise ValueError(f"n_bands must be >= 1, got {n_bands}")
        self.h = hamiltonian
        self.grid = hamiltonian.grid
        self.n_bands = n_bands
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.precond = KineticPreconditioner(self.grid)
        if initial_states is not None:
            expected = (n_bands,) + self.grid.shape
            if initial_states.shape != expected:
                raise ValueError(
                    f"initial_states must have shape {expected}, "
                    f"got {initial_states.shape}"
                )
        self.initial_states = initial_states

    # -- pieces --------------------------------------------------------------
    def _initial_states(self) -> np.ndarray:
        if self.initial_states is not None:
            return lowdin(self.grid, self.initial_states.copy())
        rng = np.random.default_rng(0)
        states = rng.standard_normal((self.n_bands,) + self.grid.shape)
        # Pre-smooth the random start: random noise is almost entirely
        # high-frequency, which converges slowest.
        states = np.stack([self.precond.apply(s) for s in states])
        return lowdin(self.grid, states)

    def _rayleigh_ritz(
        self, states: np.ndarray, h_states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h3 = self.grid.spacing ** 3
        flat = states.reshape(self.n_bands, -1)
        h_flat = h_states.reshape(self.n_bands, -1)
        h_sub = (flat.conj() @ h_flat.T) * h3
        h_sub = 0.5 * (h_sub + h_sub.conj().T)
        eps, u = np.linalg.eigh(h_sub)
        rotated = (u.T @ flat).reshape(states.shape)
        h_rotated = (u.T @ h_flat).reshape(states.shape)
        return eps, rotated, h_rotated

    def _line_minimize(self, psi: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """Exact Rayleigh-quotient line search in ``span{psi, direction}``.

        Solves the 2x2 generalized eigenproblem in that span and returns
        the combination with the *lower* Rayleigh quotient — a guaranteed
        downhill step, which is what keeps the iteration anchored to the
        bottom of the spectrum (pure residual minimization would lock onto
        whichever eigenpair is closest, including the top).
        """
        h3 = self.grid.spacing ** 3
        basis = [psi, direction]
        h_basis = [self.h.apply(b) for b in basis]
        a = np.empty((2, 2))
        s = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                a[i, j] = np.vdot(basis[i], h_basis[j]).real * h3
                s[i, j] = np.vdot(basis[i], basis[j]).real * h3
        a = 0.5 * (a + a.T)
        s = 0.5 * (s + s.T)
        # Guard: a (near-)dependent direction makes S singular.
        if np.linalg.det(s) < 1e-14 * s[0, 0] * max(s[1, 1], 1e-300):
            return psi
        from scipy.linalg import eigh as generalized_eigh

        _, vecs = generalized_eigh(a, s)
        c0, c1 = vecs[:, 0]  # lowest root
        return c0 * psi + c1 * direction

    # -- driver ----------------------------------------------------------------
    def run(self) -> RmmDiisResult:
        """Iterate until the largest band residual drops below tolerance."""
        h3 = self.grid.spacing ** 3
        states = self._initial_states()
        history: list[float] = []
        eps = np.zeros(self.n_bands)
        for it in range(1, self.max_iterations + 1):
            h_states = self.h.apply_all(states)
            eps, states, h_states = self._rayleigh_ritz(states, h_states)

            residuals = h_states - eps[:, None, None, None] * states
            r_norms = np.sqrt(
                np.sum(np.abs(residuals.reshape(self.n_bands, -1)) ** 2, axis=1) * h3
            )
            worst = float(r_norms.max())
            history.append(worst)
            if worst < self.tolerance:
                return RmmDiisResult(eps, states, it, True, history)

            for n in range(self.n_bands):
                direction = self.precond.apply(residuals[n])
                states[n] = self._line_minimize(states[n], direction)
            states = lowdin(self.grid, states)
        return RmmDiisResult(eps, states, self.max_iterations, False, history)
