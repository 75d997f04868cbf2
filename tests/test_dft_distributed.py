"""End-to-end composition tests: distributed Poisson over the FD engine."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DistributedStencil
from repro.core.approaches import ALL_APPROACHES
from repro.dft import (
    DistributedPoissonSolver,
    Laplacian,
    PoissonBreakdownError,
    PoissonSolver,
)
from repro.grid import GridDescriptor, gather, scatter
from repro.transport import InprocTransport, run_ranks


def gaussian_rho(gd):
    x, y, z = gd.coordinates()
    c = (gd.shape[0] + 1) * gd.spacing / 2
    r2 = (x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2
    return np.exp(-r2 / 2.0)


Solve = namedtuple("Solve", "potential residual_norm sweeps converged")


def solve(solver, rho):
    """One solve on ``solver``'s ranks: scatter ``rho``, run every rank's
    CG, gather the potential."""
    blocks = scatter(rho, solver.decomp, solver.halo)
    results = run_ranks(solver.decomp.n_domains, solver._rank_solve, blocks)
    _, residual, sweeps, converged = results[0]
    # collective decisions must agree across ranks
    assert all(r[2] == sweeps and r[3] == converged for r in results)
    return Solve(gather([r[0] for r in results]), residual, sweeps, converged)


class TestAllreduce:
    def test_sums_across_ranks(self):
        def fn(ep):
            return ep.allreduce(float(ep.rank + 1))

        results = run_ranks(4, fn)
        for r in results:
            assert r[0] == pytest.approx(10.0)

    def test_array_payload(self):
        def fn(ep):
            return ep.allreduce(np.array([1.0, 10.0 * ep.rank]))

        results = run_ranks(3, fn)
        for r in results:
            np.testing.assert_allclose(r, [3.0, 30.0])

    def test_single_rank(self):
        def fn(ep):
            return ep.allreduce(np.array([7.0]))

        assert run_ranks(1, fn)[0][0] == 7.0

    def test_sequential_rounds_do_not_cross(self):
        def fn(ep):
            first = ep.allreduce(1.0)[0]
            second = ep.allreduce(100.0)[0]
            return (first, second)

        for first, second in run_ranks(4, fn):
            assert (first, second) == (4.0, 400.0)


class TestDistributedPoisson:
    def test_rank_count_invariance(self):
        """Every rank derives its step lengths and its stopping decision
        from the same allreduced scalars: the decomposition only changes
        the order the dot products are summed in."""
        gd = GridDescriptor((12, 12, 12), pbc=(False,) * 3, spacing=0.5)
        rho = gaussian_rho(gd)
        ref = solve(DistributedPoissonSolver(gd, n_ranks=1, tolerance=1e-8), rho)
        assert ref.converged
        scale = np.abs(ref.potential).max()
        for n_ranks in (2, 4, 8):
            solver = DistributedPoissonSolver(gd, n_ranks=n_ranks, tolerance=1e-8)
            got = solve(solver, rho)
            assert (got.sweeps, got.converged) == (ref.sweeps, True)
            np.testing.assert_allclose(
                got.potential, ref.potential, rtol=0, atol=1e-12 * scale
            )

    def test_converges_to_multigrid_solution(self):
        gd = GridDescriptor((12, 12, 12), pbc=(False,) * 3, spacing=0.6)
        rho = gaussian_rho(gd)
        dist = DistributedPoissonSolver(gd, n_ranks=8, tolerance=1e-8,
                                        max_sweeps=20000)
        got = solve(dist, rho)
        assert got.converged
        mg = PoissonSolver(gd, tolerance=1e-10).solve(rho)
        np.testing.assert_allclose(got.potential, mg.potential, atol=1e-5)

    def test_solution_satisfies_pde(self):
        gd = GridDescriptor((12, 12, 12), pbc=(False,) * 3, spacing=0.5)
        rho = gaussian_rho(gd)
        solver = DistributedPoissonSolver(gd, n_ranks=2, tolerance=1e-9,
                                          max_sweeps=30000)
        got = solve(solver, rho)
        assert got.converged
        lhs = Laplacian(gd).apply(got.potential)
        rhs = -4 * np.pi * rho
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs) * 10

    def test_periodic_neutralization(self):
        gd = GridDescriptor((8, 8, 8), spacing=0.5)  # fully periodic
        rho = gaussian_rho(gd)  # non-neutral on purpose
        solver = DistributedPoissonSolver(gd, n_ranks=4, tolerance=1e-7,
                                          max_sweeps=30000)
        got = solve(solver, rho)
        assert got.converged
        assert abs(got.potential.mean()) < 1e-9

    @pytest.mark.parametrize(
        "approach", [a for a in ALL_APPROACHES], ids=lambda a: a.name
    )
    def test_every_approach_gives_same_answer(self, approach):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3, spacing=0.5)
        rho = gaussian_rho(gd)
        ref = solve(
            DistributedPoissonSolver(gd, n_ranks=4, tolerance=0.0, max_sweeps=10),
            rho,
        )
        got = solve(
            DistributedPoissonSolver(
                gd, n_ranks=4, tolerance=0.0, max_sweeps=10, approach=approach
            ),
            rho,
        )
        np.testing.assert_allclose(got.potential, ref.potential, atol=1e-13)

    def test_zero_rhs(self):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3)
        got = solve(DistributedPoissonSolver(gd, n_ranks=2), gd.zeros())
        assert got.converged
        assert got.sweeps == 0
        np.testing.assert_array_equal(got.potential, 0.0)

    def test_max_sweeps_exhaustion_is_collective(self):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3, spacing=0.5)
        solver = DistributedPoissonSolver(
            gd, n_ranks=4, tolerance=1e-12, max_sweeps=3
        )
        blocks = scatter(gaussian_rho(gd), solver.decomp, solver.halo)
        results = run_ranks(4, solver._rank_solve, blocks)
        assert [(r[2], r[3]) for r in results] == [(3, False)] * 4
        assert len({r[1] for r in results}) == 1  # one residual norm
        assert results[0][1] > 0.0

    def test_rho_shape_checked(self):
        gd = GridDescriptor((8, 8, 8))
        solver = DistributedPoissonSolver(gd, n_ranks=2)
        with pytest.raises(ValueError):
            solve(solver, np.zeros((4, 4, 4)))

    @settings(max_examples=15, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(6, 11)] * 3),
        pbc=st.tuples(*[st.booleans()] * 3),
        n_ranks=st.sampled_from([2, 3, 4, 6, 8]),
        blobs=st.lists(
            st.tuples(
                st.tuples(*[st.floats(0.1, 0.9)] * 3),  # centre / extent
                st.floats(0.4, 1.5),                    # width
                st.floats(-2.0, 2.0),                   # charge
            ),
            min_size=1, max_size=3,
        ),
    )
    def test_converges_and_is_decomposition_invariant(
        self, shape, pbc, n_ranks, blobs
    ):
        gd = GridDescriptor(shape, pbc=pbc, spacing=0.5)
        xyz = gd.coordinates()
        rho = gd.zeros()
        for centre, width, charge in blobs:
            r2 = sum(
                (x - c * n * gd.spacing) ** 2
                for x, c, n in zip(xyz, centre, shape)
            )
            rho = rho + charge * np.exp(-r2 / (2 * width ** 2))
        tol = 1e-8
        ref = solve(DistributedPoissonSolver(gd, 1, tolerance=tol), rho)
        got = solve(DistributedPoissonSolver(gd, n_ranks, tolerance=tol), rho)
        assert ref.converged and got.converged
        assert got.sweeps == ref.sweeps
        rhs = -4 * np.pi * rho
        if all(pbc):
            rhs = rhs - rhs.mean()
        residual = Laplacian(gd).apply(got.potential) - rhs
        assert np.linalg.norm(residual) <= 10 * tol * np.linalg.norm(rhs)
        scale = max(np.abs(ref.potential).max(), 1e-300)
        np.testing.assert_allclose(
            got.potential, ref.potential, rtol=0, atol=1e-10 * scale
        )


class TestCommunicationProfile:
    """Pins on what one solve costs, so a second reduction or a stray
    allocation per iteration shows up as a count, not as a timing."""

    @pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_k_iterations_cost_k_plus_1_exchanges_and_reductions(
        self, n_ranks, periodic
    ):
        # the solve the benchmark's SCF runs: 16^3, h = 0.6, 1e-7
        gd = GridDescriptor((16, 16, 16), pbc=(periodic,) * 3, spacing=0.6)
        solver = DistributedPoissonSolver(
            gd, n_ranks, tolerance=1e-7, max_sweeps=20000
        )
        transport = InprocTransport(n_ranks)
        blocks = scatter(gaussian_rho(gd), solver.decomp, solver.halo)
        results = run_ranks(
            n_ranks, solver._rank_solve, blocks, transport=transport
        )
        k = results[0][2]
        assert results[0][3] and 0 < k <= 80
        halo = sum(len(solver.engine.outgoing(r)) for r in range(n_ranks))
        allreduce = 2 * (n_ranks - 1)  # gather to root + broadcast
        # periodic grids add the two mean projections (rhs, phi)
        expected = (k + 1) * (halo + allreduce) + 2 * periodic * allreduce
        assert sum(rank.messages for rank in transport.stats) == expected

    @pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
    def test_steady_state_borrows_but_never_allocates(self, periodic):
        # one rank: arena accounting is exact (threads race otherwise)
        gd = GridDescriptor((10, 9, 8), pbc=(periodic,) * 3, spacing=0.5)
        solver = DistributedPoissonSolver(gd, n_ranks=1, tolerance=1e-8)
        ws = solver.engine.workspace
        first = solve(solver, gaussian_rho(gd))
        allocated, reused = ws.allocations, ws.reuses
        again = solve(solver, gaussian_rho(gd))
        assert first.sweeps == again.sweeps > 0
        assert ws.allocations == allocated
        assert ws.reuses > reused
        assert ws.n_issued == 0  # everything borrowed was handed back


class TestBreakdown:
    """A solve that cannot proceed fails on every rank in the same
    iteration with one typed error — it neither hangs a peer nor spins
    to ``max_sweeps``."""

    @staticmethod
    def _solve_catching(solver, n_ranks, rho):
        blocks = scatter(rho, solver.decomp, solver.halo)

        def fn(ep):
            try:
                solver._rank_solve(ep, blocks)
            except PoissonBreakdownError as exc:
                return str(exc)
            return None

        return run_ranks(
            n_ranks, fn, transport=InprocTransport(n_ranks, default_timeout=5.0)
        )

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_nan_density_raises_on_every_rank(self, n_ranks):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3, spacing=0.5)
        rho = gaussian_rho(gd)
        rho[0, 0, 0] = np.nan  # lives in rank 0's block only
        solver = DistributedPoissonSolver(gd, n_ranks, max_sweeps=10 ** 9)
        messages = self._solve_catching(solver, n_ranks, rho)
        assert len(set(messages)) == 1
        assert "iteration 0" in messages[0]
        assert solver.engine.workspace.n_issued == 0

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_indefinite_operator_raises_on_every_rank(self, n_ranks):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3, spacing=0.5)
        solver = DistributedPoissonSolver(gd, n_ranks, max_sweeps=10 ** 9)
        # +laplace instead of -laplace: r.Ar < 0 from the first reduction
        solver.engine = DistributedStencil(
            solver.decomp, solver.coeffs.scale(-1.0)
        )
        messages = self._solve_catching(solver, n_ranks, gaussian_rho(gd))
        assert len(set(messages)) == 1 and messages[0] is not None

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_solve_surfaces_the_typed_error_as_the_cause(self):
        from repro.transport import TransportError

        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3, spacing=0.5)
        rho = gaussian_rho(gd)
        rho[-1, -1, -1] = np.inf
        with pytest.raises(TransportError) as info:
            solve(DistributedPoissonSolver(gd, n_ranks=2), rho)
        assert isinstance(info.value.__cause__, PoissonBreakdownError)
