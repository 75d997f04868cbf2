"""Wall-clock benchmarks of the *functional* plane (real numerics).

These time the distributed engine end to end on this host — threads,
halo packing, transport, stencils — one benchmark per approach, plus the
distributed Poisson solver.  (Relative numbers here reflect this host's
Python threading, not BG/P behaviour; the simulated planes cover that.)
"""

import numpy as np
import pytest

from repro.core import (
    ALL_APPROACHES,
    DistributedStencil,
    FLAT_OPTIMIZED,
    approach_by_name,
)
from repro.dft.distributed import DistributedPoissonSolver
from repro.grid import Decomposition, GridDescriptor, HaloSpec, scatter
from repro.stencil import laplacian_coefficients
from repro.transport import run_ranks


def run_engine(approach, n_ranks=4, n_grids=8, shape=(24, 24, 24), batch=2):
    gd = GridDescriptor(shape)
    decomp = Decomposition(gd, n_ranks)
    engine = DistributedStencil(decomp, laplacian_coefficients(2, gd.spacing))
    halo = HaloSpec(2)
    blocks = {
        gid: scatter(gd.random(seed=gid), decomp, halo) for gid in range(n_grids)
    }
    b = batch if approach.supports_batching else 1

    def rank_fn(ep):
        mine = {gid: blocks[gid][ep.rank] for gid in blocks}
        return engine.apply(ep, mine, approach=approach, batch_size=b)

    return run_ranks(n_ranks, rank_fn)


@pytest.mark.parametrize("name", [a.name for a in ALL_APPROACHES])
def test_engine_wall_time(benchmark, name):
    approach = approach_by_name(name)
    results = benchmark(run_engine, approach)
    assert len(results) == 4


def test_engine_throughput(benchmark, show):
    n_grids, shape = 8, (24, 24, 24)
    benchmark(run_engine, FLAT_OPTIMIZED, 4, n_grids, shape, 2)
    points = n_grids * int(np.prod(shape))
    rate = points / benchmark.stats.stats.mean
    show(f"functional engine: {rate / 1e6:.1f} Mpoints/s over 4 rank threads")
    assert rate > 1e5


def test_distributed_poisson_wall_time(benchmark):
    gd = GridDescriptor((12, 12, 12), pbc=(False,) * 3, spacing=0.5)
    x, y, z = gd.coordinates()
    c = (gd.shape[0] + 1) * gd.spacing / 2
    rho = np.exp(-((x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2))
    # the tolerance the distributed SCF solves to
    solver = DistributedPoissonSolver(gd, n_ranks=4, tolerance=1e-7)
    result = benchmark(solver.solve, rho)
    assert result.converged and result.sweeps <= 80


@pytest.mark.parametrize("batch", [1, 2, 4, 8])
def test_engine_batch_size_sweep(benchmark, show, batch):
    """Wall time of the optimized approach as the halo-exchange batch
    grows: larger batches amortize per-message latency (section V-A)."""
    n_grids, shape = 8, (24, 24, 24)
    benchmark(run_engine, FLAT_OPTIMIZED, 4, n_grids, shape, batch)
    points = n_grids * int(np.prod(shape))
    rate = points / benchmark.stats.stats.mean
    show(f"engine batch={batch}: {rate / 1e6:.1f} Mpoints/s")


def test_engine_steady_state_with_out_reuse(benchmark, show):
    """Steady-state apply with out= reuse — the zero-allocation path an
    SCF loop takes after its first iteration."""
    gd = GridDescriptor((24, 24, 24))
    decomp = Decomposition(gd, 4)
    engine = DistributedStencil(decomp, laplacian_coefficients(2, gd.spacing))
    halo = HaloSpec(2)
    blocks = {
        gid: scatter(gd.random(seed=gid), decomp, halo) for gid in range(8)
    }
    state = {}

    def rank_fn(ep):
        mine = {gid: blocks[gid][ep.rank] for gid in blocks}
        state[ep.rank] = engine.apply(
            ep, mine, approach=FLAT_OPTIMIZED, batch_size=2,
            out=state.get(ep.rank),
        )

    def run():
        run_ranks(4, rank_fn)

    run()  # warm the arena so the benchmark times the steady state
    benchmark(run)
    rate = 8 * 24**3 / benchmark.stats.stats.mean
    show(f"steady-state engine (arena warm): {rate / 1e6:.1f} Mpoints/s")
