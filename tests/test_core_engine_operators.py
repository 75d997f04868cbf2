"""Tests for the distributed engine on complex-valued grids."""

import numpy as np
import pytest

from repro.core import ALL_APPROACHES, DistributedStencil, SequentialStencil
from repro.grid import Decomposition, GridDescriptor, HaloSpec, gather, scatter
from repro.stencil import laplacian_coefficients
from repro.transport import run_ranks


def distribute_and_apply(engine, gd, arrays, n_ranks, approach=None, batch_size=1):
    halo = HaloSpec(engine.halo.width)
    blocks = {gid: scatter(a, engine.decomp, halo) for gid, a in arrays.items()}

    def rank_fn(ep):
        mine = {gid: blocks[gid][ep.rank] for gid in arrays}
        kwargs = {"batch_size": batch_size}
        if approach is not None:
            kwargs["approach"] = approach
        return engine.apply(ep, mine, **kwargs)

    results = run_ranks(n_ranks, rank_fn)
    return {
        gid: gather([results[r][gid] for r in range(n_ranks)]) for gid in arrays
    }


class TestComplexGrids:
    """GPAW's k-point wave functions are complex (16 B/point, section IV)."""

    @pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.name)
    def test_complex_distributed_matches_sequential(self, approach):
        gd = GridDescriptor((8, 8, 8), dtype=np.complex128, spacing=0.4)
        decomp = Decomposition(gd, 4)
        coeffs = laplacian_coefficients(2, gd.spacing)
        engine = DistributedStencil(decomp, coeffs)
        arrays = {0: gd.random(seed=4), 1: gd.random(seed=5)}
        got = distribute_and_apply(
            engine, gd, arrays, 4, approach=approach,
            batch_size=2 if approach.supports_batching else 1,
        )
        expected = SequentialStencil(gd, coeffs).apply(arrays)
        for gid in arrays:
            assert got[gid].dtype == np.complex128
            np.testing.assert_allclose(got[gid], expected[gid], rtol=1e-12)

    def test_complex_blocks_are_16_bytes_per_point(self):
        gd = GridDescriptor((8, 8, 8), dtype=np.complex128)
        decomp = Decomposition(gd, 2)
        real = Decomposition(GridDescriptor((8, 8, 8)), 2)
        assert decomp.send_bytes(0, 0, +1, 2) == 2 * real.send_bytes(0, 0, +1, 2)
