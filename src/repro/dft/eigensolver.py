"""Lowest eigenstates of the FD Hamiltonian.

Uses ARPACK (``scipy.sparse.linalg.eigsh``) through the Hamiltonian's
LinearOperator view — the standard route for "give me the lowest k states
of a big sparse operator" — with ``sigma``-free smallest-algebraic mode.
Wave functions come back grid-shaped and orthonormal (ARPACK guarantees an
orthonormal basis of the converged invariant subspace).  SciPy is
imported when :func:`lowest_eigenstates` is first called, not when this
module is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dft.hamiltonian import Hamiltonian


@dataclass
class EigenResult:
    """Eigenpairs, lowest first."""

    energies: np.ndarray  # (k,)
    states: np.ndarray  # (k, nx, ny, nz), orthonormal w.r.t. grid dot


def lowest_eigenstates(
    hamiltonian: Hamiltonian,
    k: int,
    tol: float = 1e-8,
) -> EigenResult:
    """The ``k`` lowest eigenpairs of ``hamiltonian`` (seeded start vector)."""
    from scipy.sparse.linalg import eigsh

    n = hamiltonian.grid.n_points
    if not 1 <= k < n - 1:
        raise ValueError(f"k must be in 1..{n - 2}, got {k}")
    op = hamiltonian.as_linear_operator()
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    # Request guard states beyond k: ARPACK can otherwise return an
    # incomplete degenerate shell (e.g. two of the three first excited
    # harmonic-oscillator states) when the cluster straddles the cut.
    k_eff = min(k + 4, n - 2)
    ncv = min(n - 1, max(4 * k_eff, 40))
    energies, vectors = eigsh(
        op, k=k_eff, which="SA", tol=tol, v0=v0, ncv=ncv
    )
    order = np.argsort(energies)[:k]
    energies = energies[order]
    vectors = vectors[:, order]
    # normalize w.r.t. the grid inner product (h^3 volume element)
    h3 = hamiltonian.grid.spacing ** 3
    vectors = vectors / np.sqrt(h3)
    states = vectors.T.reshape((k,) + hamiltonian.grid.shape)
    return EigenResult(energies=energies, states=states)
