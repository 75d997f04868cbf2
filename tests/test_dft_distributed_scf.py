"""End-to-end tests: the fully distributed Kohn-Sham SCF.

Every grid operation (kinetic stencil, preconditioner sweeps, Poisson)
runs through the distributed FD engine; band matrices reduce over the
transport.  The physics must match the sequential SCF.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.approaches import HYBRID_MULTIPLE
from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
from repro.dft import SCFLoop
from repro.dft.distributed_scf import DistributedSCF, _lowest_pencil_vector
from repro.grid import GridDescriptor


def aniso_trap(n=10, spacing=0.55):
    """An anisotropic harmonic trap: non-degenerate spectrum, so the
    closed-shell occupations are unambiguous and the SCF is stable."""
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=spacing)
    x, y, z = gd.coordinates()
    c = (n + 1) * spacing / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    return gd, v


def spec(gd, n_bands, n_ranks, *, approach="flat-optimized", **runtime):
    """A JobSpec for the trap problems — the typed front door."""
    if not isinstance(approach, str):
        approach = approach.name
    return JobSpec(
        problem=ProblemSpec.from_grid(gd, n_bands),
        layout=LayoutSpec(approach=approach, n_cores=n_ranks),
        runtime=RuntimeSpec(**runtime),
    )


class TestValidation:
    def test_bad_args(self):
        gd, v = aniso_trap(8)
        with pytest.raises(ValueError):
            DistributedSCF.from_spec(spec(gd, 0, 2), v)
        with pytest.raises(ValueError):
            DistributedSCF.from_spec(spec(gd, 1, 2, xc="pbe"), v)
        with pytest.raises(ValueError):
            DistributedSCF.from_spec(spec(gd, 2, 2), v, occupations=[2.0])
        with pytest.raises(ValueError):
            DistributedSCF.from_spec(spec(gd, 1, 2), np.zeros((4, 4, 4)))


class TestAgainstSequential:
    def test_single_band_converges_and_matches(self):
        gd, v = aniso_trap(8, 0.6)
        seq = SCFLoop(
            gd, v, n_bands=1, occupations=[2.0], mixing=0.6,
            tolerance=1e-3, max_iterations=30, eig_tol=1e-8,
        ).run()
        dist = DistributedSCF.from_spec(
            spec(gd, 1, 2, mixing=0.6, tolerance=1e-3, max_iterations=30,
                 band_iterations=10),
            v, occupations=[2.0],
        ).run()
        assert seq.converged and dist.converged
        assert dist.energies[0] == pytest.approx(seq.energies[0], abs=2e-3)
        assert dist.total_energy == pytest.approx(seq.total_energy, abs=5e-3)

    def test_two_bands_energies_match(self):
        gd, v = aniso_trap(10, 0.55)
        seq = SCFLoop(
            gd, v, n_bands=2, occupations=[2.0, 2.0], mixing=0.6,
            tolerance=1e-4, max_iterations=30, eig_tol=1e-8,
        ).run()
        dist = DistributedSCF.from_spec(
            spec(gd, 2, 4, mixing=0.6, tolerance=0.0, max_iterations=10,
                 band_iterations=12),
            v, occupations=[2.0, 2.0],
        ).run()
        np.testing.assert_allclose(dist.energies, seq.energies, atol=5e-3)
        assert dist.total_energy == pytest.approx(seq.total_energy, abs=2e-2)

    def test_density_properties(self):
        gd, v = aniso_trap(8, 0.6)
        dist = DistributedSCF.from_spec(
            spec(gd, 1, 4, tolerance=0.0, max_iterations=5,
                 band_iterations=8),
            v, occupations=[2.0],
        ).run()
        h3 = gd.spacing ** 3
        assert dist.density.min() >= -1e-12
        assert dist.density.sum() * h3 == pytest.approx(2.0, rel=1e-6)

    def test_gathered_states_orthonormal(self):
        gd, v = aniso_trap(8, 0.6)
        dist = DistributedSCF.from_spec(
            spec(gd, 2, 2, tolerance=0.0, max_iterations=4,
                 band_iterations=6),
            v, occupations=[2.0, 2.0],
        ).run()
        from repro.dft import overlap_matrix

        s = overlap_matrix(gd, dist.states)
        np.testing.assert_allclose(s, np.eye(2), atol=1e-8)

    def test_rank_count_invariance(self):
        """Two and four ranks give the same physics (round-off apart)."""
        gd, v = aniso_trap(8, 0.6)

        def run(n_ranks):
            return DistributedSCF.from_spec(
                spec(gd, 1, n_ranks, tolerance=0.0, max_iterations=5,
                     band_iterations=8, seed=3),
                v, occupations=[2.0],
            ).run()

        a, b = run(2), run(4)
        assert a.energies[0] == pytest.approx(b.energies[0], abs=1e-6)
        assert a.total_energy == pytest.approx(b.total_energy, abs=1e-6)

    def test_bitwise_reproducible_run_to_run(self):
        """Four domains in one group: every allreduce sums in rank order,
        so two runs agree bit for bit, not just to round-off."""
        gd, v = aniso_trap(8, 0.6)

        def run():
            return DistributedSCF.from_spec(
                spec(gd, 2, 4, tolerance=0.0, max_iterations=4,
                     band_iterations=6, seed=2),
                v, occupations=[2.0, 2.0],
            ).run()

        a, b = run(), run()
        assert a.total_energy == b.total_energy
        np.testing.assert_array_equal(a.energies, b.energies)
        np.testing.assert_array_equal(a.density, b.density)
        np.testing.assert_array_equal(a.states, b.states)

    def test_alternative_schedule(self):
        """The hybrid-multiple exchange schedule gives identical numerics."""
        gd, v = aniso_trap(8, 0.6)

        def run(approach):
            return DistributedSCF.from_spec(
                spec(gd, 1, 4, approach=approach, tolerance=0.0,
                     max_iterations=3, band_iterations=5, seed=1),
                v, occupations=[2.0],
            ).run()

        from repro.core import FLAT_OPTIMIZED

        a, b = run(FLAT_OPTIMIZED), run(HYBRID_MULTIPLE)
        assert a.energies[0] == pytest.approx(b.energies[0], abs=1e-12)

    def test_lda_runs_distributed(self):
        gd, v = aniso_trap(8, 0.6)
        dist = DistributedSCF.from_spec(
            spec(gd, 1, 2, tolerance=0.0, max_iterations=8,
                 band_iterations=8, xc="lda"),
            v, occupations=[2.0],
        ).run()
        seq = SCFLoop(
            gd, v, n_bands=1, occupations=[2.0], mixing=0.5,
            tolerance=1e-4, max_iterations=30, eig_tol=1e-8, xc="lda",
        ).run()
        assert dist.total_energy == pytest.approx(seq.total_energy, abs=3e-2)


class TestLineSearchPencil:
    """The line search's NumPy 2x2 solve against SciPy's LAPACK one."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        a=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        diag=st.lists(st.floats(1e-3, 10), min_size=2, max_size=2),
        corr=st.floats(-1, 1),
    )
    def test_matches_scipy_generalized_eigh(self, a, diag, corr):
        from scipy.linalg import eigh

        a = np.array([[a[0], a[1]], [a[1], a[2]]])
        s12 = corr * np.sqrt(diag[0] * diag[1])
        s2 = np.array([[diag[0], s12], [s12, diag[1]]])
        assume(np.linalg.det(s2) >= 1e-14)
        ref_lams, ref_vecs = eigh(a, s2)
        lam, v = _lowest_pencil_vector(a, s2)
        scale = np.abs(ref_lams).max()
        assert abs(lam - ref_lams[0]) <= 1e-12 * scale
        assert v @ s2 @ v == pytest.approx(1.0, abs=1e-10)
        # the vector is defined up to sign only where the roots differ
        assume(ref_lams[1] - ref_lams[0] > 1e-6 * scale)
        ref = ref_vecs[:, 0] * np.sign(v @ ref_vecs[:, 0])
        np.testing.assert_allclose(v, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
