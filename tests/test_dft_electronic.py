"""Tests for Hamiltonian, eigensolver, orthogonalization, density, SCF."""

import numpy as np
import pytest

from repro.dft import (
    Hamiltonian,
    SCFLoop,
    density_from_states,
    lowdin,
    lowest_eigenstates,
    overlap_matrix,
)
from repro.dft.density import total_charge
from repro.grid import GridDescriptor


def harmonic_grid(n=24, spacing=0.35, omega=1.0):
    """An open-boundary box with a centred harmonic potential."""
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=spacing)
    x, y, z = gd.coordinates()
    c = (n + 1) * spacing / 2
    v = 0.5 * omega**2 * ((x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2)
    return gd, v


def _rayleigh(ham, psi):
    """``<psi|H|psi> / <psi|psi>``."""
    return np.vdot(psi, ham(psi)).real / np.vdot(psi, psi).real


class TestHamiltonian:
    def test_free_particle_plane_wave_energy(self):
        """On a periodic grid, exp(ikx) has kinetic energy k_eff^2/2 with
        the discrete dispersion of the radius-2 stencil."""
        n, h = 16, 0.4
        gd = GridDescriptor((n, n, n), spacing=h, dtype=np.complex128)
        ham = Hamiltonian(gd)
        k = 2 * np.pi / (n * h)
        x = np.arange(n) * h
        psi = (np.exp(1j * k * x)[:, None, None] * np.ones((1, n, n))).astype(
            np.complex128
        )
        e = _rayleigh(ham, psi)
        # discrete eigenvalue of -1/2 d2/dx2 for the radius-2 stencil; the
        # constant y/z directions contribute exactly zero (weights sum to 0)
        w1, w2 = 4 / 3 / h**2, -1 / 12 / h**2
        lam = -0.5 * (
            -2.5 / h**2 + 2 * w1 * np.cos(k * h) + 2 * w2 * np.cos(2 * k * h)
        )
        assert e == pytest.approx(lam, rel=1e-10)
        # ... and close to the continuum k^2/2 for this resolution
        assert e == pytest.approx(k**2 / 2, rel=0.01)

    def test_potential_shifts_energy(self):
        gd, v = harmonic_grid(n=12)
        psi = gd.random(seed=1)
        h0 = Hamiltonian(gd)
        hv = Hamiltonian(gd, v)
        shift = np.vdot(psi, v * psi).real / np.vdot(psi, psi).real
        assert _rayleigh(hv, psi) == pytest.approx(_rayleigh(h0, psi) + shift)

    def test_hermitian(self):
        gd, v = harmonic_grid(n=10)
        ham = Hamiltonian(gd, v)
        a, b = gd.random(seed=2), gd.random(seed=3)
        assert np.vdot(a, ham(b)) == pytest.approx(np.vdot(ham(a), b), rel=1e-10)

    def test_with_potential_shares_kinetic(self):
        gd, v = harmonic_grid(n=10)
        h1 = Hamiltonian(gd, v)
        h2 = h1.with_potential(2 * v)
        assert h2.kinetic is h1.kinetic
        psi = gd.random(seed=4)
        np.testing.assert_allclose(h2(psi), h1(psi) + v * psi, rtol=1e-12)

    def test_shape_validation(self):
        gd = GridDescriptor((8, 8, 8))
        with pytest.raises(ValueError):
            Hamiltonian(gd, potential=np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            Hamiltonian(gd).apply(np.zeros((4, 4, 4)))



class TestEigensolver:
    def test_harmonic_oscillator_spectrum(self):
        """3D harmonic oscillator: E_n = (n + 3/2) omega, degeneracies
        1, 3, 6 for the lowest shells."""
        gd, v = harmonic_grid(n=28, spacing=0.35)
        result = lowest_eigenstates(Hamiltonian(gd, v), k=4, tol=1e-6)
        e = result.energies
        assert e[0] == pytest.approx(1.5, abs=0.03)
        for i in (1, 2, 3):
            assert e[i] == pytest.approx(2.5, abs=0.05)

    def test_states_orthonormal(self):
        gd, v = harmonic_grid(n=16)
        result = lowest_eigenstates(Hamiltonian(gd, v), k=3, tol=1e-8)
        s = overlap_matrix(gd, result.states)
        np.testing.assert_allclose(s, np.eye(3), atol=1e-6)

    def test_states_satisfy_eigen_equation(self):
        gd, v = harmonic_grid(n=16)
        ham = Hamiltonian(gd, v)
        result = lowest_eigenstates(ham, k=2, tol=1e-10)
        for e, psi in zip(result.energies, result.states):
            residual = ham(psi) - e * psi
            assert np.linalg.norm(residual) < 1e-5 * np.linalg.norm(psi)

    def test_k_validated(self):
        gd, v = harmonic_grid(n=8)
        with pytest.raises(ValueError):
            lowest_eigenstates(Hamiltonian(gd, v), k=0)

    def test_deterministic_with_seed(self):
        gd, v = harmonic_grid(n=10)
        a = lowest_eigenstates(Hamiltonian(gd, v), k=2)
        b = lowest_eigenstates(Hamiltonian(gd, v), k=2)
        np.testing.assert_allclose(a.energies, b.energies, rtol=1e-12)


class TestOrthogonalization:
    def make_states(self, gd, n=4, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n,) + gd.shape)

    def test_lowdin_orthonormalizes(self):
        gd = GridDescriptor((10, 10, 10), spacing=0.3)
        states = lowdin(gd, self.make_states(gd))
        np.testing.assert_allclose(overlap_matrix(gd, states), np.eye(4), atol=1e-10)

    def test_overlap_matrix_is_bitwise_hermitian(self):
        """The blocked build computes the lower triangle and reflects it,
        so symmetry holds to the bit, not just to round-off."""
        gd = GridDescriptor((9, 8, 7), spacing=0.4)
        s = overlap_matrix(gd, self.make_states(gd, n=5, seed=3))
        assert (s == s.conj().T).all()

    def test_overlap_matrix_matches_naive_gram(self):
        gd = GridDescriptor((8, 8, 8), spacing=0.35)
        states = self.make_states(gd, n=6, seed=1)
        flat = states.reshape(6, -1)
        naive = (flat.conj() @ flat.T) * gd.spacing**3
        np.testing.assert_allclose(
            overlap_matrix(gd, states), naive, rtol=1e-13, atol=1e-13
        )

    def test_overlap_matrix_single_state(self):
        gd = GridDescriptor((6, 6, 6), spacing=0.5)
        states = self.make_states(gd, n=1)
        s = overlap_matrix(gd, states)
        assert s.shape == (1, 1)
        want = np.vdot(states[0], states[0]) * gd.spacing**3
        assert s[0, 0] == pytest.approx(want, rel=1e-13)

    def test_lowdin_is_symmetric_least_change(self):
        """Löwdin treats bands symmetrically: orthogonalizing a permuted
        set is the permutation of the orthogonalized set."""
        gd = GridDescriptor((8, 8, 8), spacing=0.3)
        states = self.make_states(gd)
        perm = [2, 0, 3, 1]
        a = lowdin(gd, states)[perm]
        b = lowdin(gd, states[perm])
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_dependent_bands_detected(self):
        gd = GridDescriptor((8, 8, 8), spacing=0.3)
        states = self.make_states(gd, n=3)
        states[2] = 0.5 * states[0] - states[1]
        with pytest.raises(ValueError):
            lowdin(gd, states)

    def test_shape_validated(self):
        gd = GridDescriptor((8, 8, 8))
        with pytest.raises(ValueError):
            overlap_matrix(gd, np.zeros((8, 8, 8)))


class TestDensity:
    def test_charge_counts_electrons(self):
        gd, v = harmonic_grid(n=16)
        result = lowest_eigenstates(Hamiltonian(gd, v), k=2, tol=1e-8)
        rho = density_from_states(gd, result.states)  # 2 e per band
        assert total_charge(gd, rho) == pytest.approx(4.0, rel=1e-4)

    def test_custom_occupations(self):
        gd, v = harmonic_grid(n=12)
        result = lowest_eigenstates(Hamiltonian(gd, v), k=2, tol=1e-6)
        rho = density_from_states(gd, result.states, occupations=[2.0, 0.0])
        rho_single = density_from_states(gd, result.states[:1], occupations=[2.0])
        np.testing.assert_allclose(rho, rho_single, atol=1e-12)

    def test_density_nonnegative_and_real(self):
        gd, v = harmonic_grid(n=12)
        result = lowest_eigenstates(Hamiltonian(gd, v), k=3, tol=1e-6)
        rho = density_from_states(gd, result.states)
        assert rho.dtype == np.float64
        assert rho.min() >= 0

    def test_validation(self):
        gd = GridDescriptor((8, 8, 8))
        with pytest.raises(ValueError):
            density_from_states(gd, np.zeros((2, 4, 4, 4)))
        with pytest.raises(ValueError):
            density_from_states(gd, np.zeros((2,) + gd.shape), occupations=[1.0])
        with pytest.raises(ValueError):
            density_from_states(gd, np.zeros((1,) + gd.shape), occupations=[-1.0])


class TestSCF:
    def test_hartree_loop_converges(self):
        """Two electrons in a harmonic trap: the SCF loop must converge and
        the Hartree repulsion must push the band energy above the
        non-interacting value."""
        gd, v = harmonic_grid(n=16, spacing=0.5)
        non_interacting = lowest_eigenstates(Hamiltonian(gd, v), k=1, tol=1e-7)
        scf = SCFLoop(
            gd, v, n_bands=1, occupations=[2.0], mixing=0.6,
            tolerance=1e-4, max_iterations=40, eig_tol=1e-7,
        )
        result = scf.run()
        assert result.converged
        assert result.energies[0] > non_interacting.energies[0]
        assert total_charge(gd, result.density) == pytest.approx(2.0, rel=1e-3)

    def test_density_change_monotone_tail(self):
        gd, v = harmonic_grid(n=12, spacing=0.5)
        scf = SCFLoop(gd, v, n_bands=1, occupations=[2.0], tolerance=1e-5,
                      max_iterations=30, eig_tol=1e-6)
        result = scf.run()
        assert result.converged
        tail = result.density_change_history[-3:]
        assert tail == sorted(tail, reverse=True)

    def test_validation(self):
        gd, v = harmonic_grid(n=8)
        with pytest.raises(ValueError):
            SCFLoop(gd, v, n_bands=0)
        with pytest.raises(ValueError):
            SCFLoop(gd, v, n_bands=1, mixing=0.0)
        with pytest.raises(ValueError):
            SCFLoop(gd, np.zeros((4, 4, 4)), n_bands=1)
