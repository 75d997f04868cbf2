"""Tests for the memory accounting (section VII's job-size constraint)."""

import pytest

from repro.core import FDJob, FLAT_OPTIMIZED, FLAT_ORIGINAL, HYBRID_MULTIPLE
from repro.core.memory import fd_memory_per_rank, memory_limit_per_rank
from repro.grid import GridDescriptor
from repro.util.units import GB, MB


class TestLimits:
    def test_vn_mode_sees_quarter_memory(self):
        """'four individual nodes with each 512MB of main memory' — a
        quarter of the node's 2 GB per virtual-node rank."""
        assert memory_limit_per_rank(FLAT_ORIGINAL, 4096) * 4 == 2 * GB

    def test_hybrid_sees_full_node(self):
        assert memory_limit_per_rank(HYBRID_MULTIPLE, 4096) == 2 * GB

    def test_single_core_run_sees_full_node(self):
        """The sequential Fig 5 baseline runs one rank on a node."""
        assert memory_limit_per_rank(FLAT_ORIGINAL, 1) == 2 * GB

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            memory_limit_per_rank(FLAT_ORIGINAL, 0)


class TestFootprint:
    def test_single_grid_single_core(self):
        grid = GridDescriptor((144, 144, 144))
        one = fd_memory_per_rank(FDJob(grid, 1), FLAT_ORIGINAL, 1)
        # padded input (148^3) + output (144^3), 8 B points
        assert one == (148**3 + 144**3) * 8

    def test_scales_linearly_in_grids(self):
        grid = GridDescriptor((96, 96, 96))
        one = fd_memory_per_rank(FDJob(grid, 1), FLAT_ORIGINAL, 1)
        ten = fd_memory_per_rank(FDJob(grid, 10), FLAT_ORIGINAL, 1)
        assert ten == 10 * one

    def test_decomposition_shrinks_footprint(self):
        grid = GridDescriptor((144, 144, 144))
        job = FDJob(grid, 32)
        whole = fd_memory_per_rank(job, FLAT_OPTIMIZED, 1)
        split = fd_memory_per_rank(job, FLAT_OPTIMIZED, 512)
        assert split < whole / 100  # ~1/512 plus halo overhead

    def test_complex_grids_double(self):
        import numpy as np

        real = GridDescriptor((64, 64, 64))
        cplx = GridDescriptor((64, 64, 64), dtype=np.complex128)
        assert fd_memory_per_rank(
            FDJob(cplx, 4), FLAT_ORIGINAL, 1
        ) == 2 * fd_memory_per_rank(FDJob(real, 4), FLAT_ORIGINAL, 1)


def _fits(job, approach, n_cores):
    return fd_memory_per_rank(job, approach, n_cores) <= memory_limit_per_rank(
        approach, n_cores
    )


class TestPaperConstraint:
    def test_32_grids_is_the_single_core_maximum(self):
        """Section VII: 'because of the memory demand, it is not possible
        to have more than 32 grids running on a single CPU-core'."""
        grid = GridDescriptor((144, 144, 144))
        assert _fits(FDJob(grid, 32), FLAT_ORIGINAL, 1)
        assert not _fits(FDJob(grid, 64), FLAT_ORIGINAL, 1)

    def test_exact_maximum_without_power_rounding(self):
        grid = GridDescriptor((144, 144, 144))
        one = fd_memory_per_rank(FDJob(grid, 1), FLAT_ORIGINAL, 1)
        exact = memory_limit_per_rank(FLAT_ORIGINAL, 1) // one
        assert 32 <= exact < 64

    def test_grid_too_big_for_memory(self):
        huge = GridDescriptor((640, 640, 640))  # ~2.1 GB + halo for one grid
        assert not _fits(FDJob(huge, 1), FLAT_ORIGINAL, 1)

    def test_fig7_job_fits_at_1k_cores(self):
        """The 2816-grid 192^3 job must actually fit where the paper ran
        it (1024 VN ranks, 512 MB each)."""
        job = FDJob(GridDescriptor((192, 192, 192)), 2816)
        assert _fits(job, FLAT_ORIGINAL, 1024)
        assert _fits(job, HYBRID_MULTIPLE, 1024)
