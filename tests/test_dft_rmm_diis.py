"""Tests for the RMM-DIIS eigensolver and kinetic preconditioner."""

import numpy as np
import pytest

from repro.dft.eigensolver import lowest_eigenstates
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.orthogonalize import overlap_matrix
from repro.dft.rmm_diis import KineticPreconditioner, RmmDiis
from repro.grid import GridDescriptor


def harmonic(n=16, spacing=0.5):
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=spacing)
    x, y, z = gd.coordinates()
    c = (n + 1) * spacing / 2
    v = 0.5 * ((x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2)
    return gd, Hamiltonian(gd, v)


class TestKineticPreconditioner:
    def test_damps_high_frequencies_more(self):
        """The preconditioner must attenuate a checkerboard mode much more
        strongly than a smooth mode (relative to their input norms)."""
        gd = GridDescriptor((16, 16, 16), pbc=(False,) * 3, spacing=0.5)
        pre = KineticPreconditioner(gd)
        x, _, _ = gd.coordinates()
        smooth = np.sin(np.pi * x / x.max())
        rough = np.indices(gd.shape).sum(axis=0) % 2 * 2.0 - 1.0
        gain_smooth = np.linalg.norm(pre.apply(smooth)) / np.linalg.norm(smooth)
        gain_rough = np.linalg.norm(pre.apply(rough)) / np.linalg.norm(rough)
        assert gain_smooth > 3 * gain_rough

    def test_linear(self):
        gd = GridDescriptor((8, 8, 8), spacing=0.4)
        pre = KineticPreconditioner(gd)
        a, b = gd.random(seed=1), gd.random(seed=2)
        np.testing.assert_allclose(
            pre.apply(2 * a - 3 * b), 2 * pre.apply(a) - 3 * pre.apply(b), atol=1e-10
        )


class TestRmmDiis:
    def test_matches_arpack_spectrum(self):
        gd, ham = harmonic()
        got = RmmDiis(ham, n_bands=4, tolerance=1e-4, max_iterations=300).run()
        ref = lowest_eigenstates(ham, 4, tol=1e-8)
        assert got.converged
        np.testing.assert_allclose(got.energies, ref.energies, atol=5e-3)

    def test_states_orthonormal(self):
        gd, ham = harmonic(n=12)
        got = RmmDiis(ham, n_bands=3, tolerance=1e-3, max_iterations=300).run()
        s = overlap_matrix(gd, got.states)
        np.testing.assert_allclose(s, np.eye(3), atol=1e-8)

    def test_residuals_decrease(self):
        gd, ham = harmonic(n=12)
        got = RmmDiis(ham, n_bands=2, tolerance=1e-10, max_iterations=40).run()
        hist = got.residual_history
        # overall decay (allow local non-monotonicity)
        assert hist[-1] < 0.1 * hist[0]

    def test_energy_never_below_ground_truth(self):
        """Rayleigh-Ritz energies bound the true eigenvalues from above."""
        gd, ham = harmonic(n=12)
        got = RmmDiis(ham, n_bands=2, tolerance=1e-4, max_iterations=300).run()
        ref = lowest_eigenstates(ham, 2, tol=1e-9)
        assert got.energies[0] >= ref.energies[0] - 1e-6
        assert got.energies[1] >= ref.energies[1] - 1e-6

    def test_deterministic(self):
        gd, ham = harmonic(n=10)
        a = RmmDiis(ham, n_bands=2, tolerance=1e-3).run()
        b = RmmDiis(ham, n_bands=2, tolerance=1e-3).run()
        np.testing.assert_array_equal(a.energies, b.energies)
        assert a.iterations == b.iterations

    def test_unconverged_reported_honestly(self):
        gd, ham = harmonic(n=12)
        got = RmmDiis(ham, n_bands=2, tolerance=1e-14, max_iterations=3).run()
        assert not got.converged
        assert got.iterations == 3

    def test_validation(self):
        gd, ham = harmonic(n=8)
        with pytest.raises(ValueError):
            RmmDiis(ham, n_bands=0)


class TestWarmStart:
    def test_initial_states_accepted(self):
        gd, ham = harmonic(n=10)
        cold = RmmDiis(ham, n_bands=2, tolerance=1e-4, max_iterations=300).run()
        warm = RmmDiis(
            ham, n_bands=2, tolerance=1e-4, max_iterations=300,
            initial_states=cold.states,
        ).run()
        assert warm.converged
        assert warm.iterations <= 3  # already at the solution
        np.testing.assert_allclose(warm.energies, cold.energies, atol=1e-4)

    def test_initial_states_shape_checked(self):
        gd, ham = harmonic(n=8)
        with pytest.raises(ValueError):
            RmmDiis(ham, n_bands=2, initial_states=np.zeros((3,) + gd.shape))


class TestScfIntegration:
    def test_scf_with_rmm_diis_matches_arpack(self):
        from repro.dft import SCFLoop

        gd, ham = harmonic(n=12)
        v = ham.potential
        results = {}
        for solver in ("arpack", "rmm-diis"):
            out = SCFLoop(
                gd, v, n_bands=1, occupations=[2.0], mixing=0.6,
                tolerance=1e-4, max_iterations=40, eig_tol=1e-6,
                eigensolver=solver,
            ).run()
            assert out.converged
            results[solver] = out
        assert results["rmm-diis"].total_energy == pytest.approx(
            results["arpack"].total_energy, abs=1e-3
        )

    def test_invalid_eigensolver_name(self):
        from repro.dft import SCFLoop

        gd, ham = harmonic(n=8)
        with pytest.raises(ValueError):
            SCFLoop(gd, ham.potential, n_bands=1, eigensolver="davidson")
