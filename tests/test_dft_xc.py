"""Tests for the LDA exchange-correlation functionals + the LDA SCF loop."""

import numpy as np
import pytest

from repro.dft.scf import SCFLoop
from repro.dft.xc import (
    lda_energy,
    lda_exchange_energy_density,
    lda_exchange_potential,
    lda_potential,
    wigner_correlation_energy_density,
    wigner_correlation_potential,
)
from repro.grid import GridDescriptor


class TestExchange:
    def test_known_value(self):
        # v_x(rho=1) = -(3/pi)^(1/3)
        assert lda_exchange_potential(np.array([1.0]))[0] == pytest.approx(
            -((3 / np.pi) ** (1 / 3))
        )

    def test_zero_density(self):
        assert lda_exchange_potential(np.array([0.0]))[0] == 0.0
        assert lda_exchange_energy_density(np.array([0.0]))[0] == 0.0

    def test_potential_is_derivative_of_energy(self):
        """v_x = d e_x / d rho, checked by finite differences."""
        rho = np.linspace(0.1, 2.0, 20)
        eps = 1e-6
        numeric = (
            lda_exchange_energy_density(rho + eps)
            - lda_exchange_energy_density(rho - eps)
        ) / (2 * eps)
        np.testing.assert_allclose(lda_exchange_potential(rho), numeric, rtol=1e-6)

    def test_scaling_four_thirds(self):
        rho = np.array([0.7])
        e1 = lda_exchange_energy_density(rho)
        e2 = lda_exchange_energy_density(2 * rho)
        assert e2[0] / e1[0] == pytest.approx(2 ** (4 / 3))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            lda_exchange_potential(np.array([-0.1]))


class TestCorrelation:
    def test_potential_is_derivative_of_energy(self):
        rho = np.linspace(0.05, 1.5, 25)
        eps = 1e-7
        numeric = (
            wigner_correlation_energy_density(rho + eps)
            - wigner_correlation_energy_density(rho - eps)
        ) / (2 * eps)
        np.testing.assert_allclose(
            wigner_correlation_potential(rho), numeric, rtol=1e-4
        )

    def test_small_against_exchange(self):
        rho = np.array([0.5])
        assert abs(wigner_correlation_energy_density(rho)[0]) < abs(
            lda_exchange_energy_density(rho)[0]
        )

    def test_both_negative(self):
        rho = np.linspace(0.01, 3.0, 10)
        assert np.all(wigner_correlation_energy_density(rho) < 0)
        assert np.all(lda_exchange_energy_density(rho) < 0)


class TestLdaEnergyIntegral:
    def test_homogeneous_box(self):
        gd = GridDescriptor((8, 8, 8), spacing=0.5)
        rho = np.full(gd.shape, 0.3)
        e = lda_energy(rho, gd.spacing)
        volume = gd.n_points * gd.spacing**3
        rho0 = np.array([0.3])
        expected = float(
            lda_exchange_energy_density(rho0)[0]
            + wigner_correlation_energy_density(rho0)[0]
        ) * volume
        assert e == pytest.approx(expected)

    def test_correlation_included_by_default(self):
        rho = np.full((4, 4, 4), 0.3)
        exchange_only = float(lda_exchange_energy_density(rho).sum() * 0.5**3)
        assert lda_energy(rho, 0.5) < exchange_only


class TestLdaScf:
    def make(self, xc):
        gd = GridDescriptor((14, 14, 14), pbc=(False,) * 3, spacing=0.5)
        x, y, z = gd.coordinates()
        c = (gd.shape[0] + 1) * gd.spacing / 2
        v = 0.5 * ((x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2)
        return gd, SCFLoop(
            gd, v, n_bands=1, occupations=[2.0], mixing=0.5,
            tolerance=1e-4, max_iterations=40, eig_tol=1e-6, xc=xc,
        )

    def test_lda_converges(self):
        _, scf = self.make("lda")
        result = scf.run()
        assert result.converged

    def test_xc_lowers_level_vs_hartree_only(self):
        """Exchange-correlation is attractive: the self-consistent level
        drops relative to the Hartree-only loop."""
        _, hartree = self.make("none")
        _, lda = self.make("lda")
        e_h = hartree.run().energies[0]
        e_lda = lda.run().energies[0]
        assert e_lda < e_h

    def test_invalid_xc_name(self):
        gd = GridDescriptor((8, 8, 8))
        with pytest.raises(ValueError):
            SCFLoop(gd, gd.zeros(), n_bands=1, xc="b3lyp")
