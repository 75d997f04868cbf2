"""Tests for repro.grid.decompose (domain decomposition)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import Decomposition, GridDescriptor


def make(shape=(12, 12, 12), n=8, pbc=(True, True, True), domains_shape=None):
    return Decomposition(GridDescriptor(shape, pbc=pbc), n, domains_shape)


class TestFactorizationChoice:
    def test_cube_prefers_cubic_split(self):
        d = make((144, 144, 144), 8)
        assert d.domains_shape == (2, 2, 2)

    def test_64_domains_on_cube(self):
        d = make((192, 192, 192), 64)
        assert d.domains_shape == (4, 4, 4)

    def test_elongated_grid_splits_long_axis(self):
        d = make((64, 8, 8), 8)
        assert d.domains_shape == (8, 1, 1)

    def test_explicit_shape_respected(self):
        d = make((12, 12, 12), 8, domains_shape=(8, 1, 1))
        assert d.domains_shape == (8, 1, 1)

    def test_explicit_shape_must_factor(self):
        with pytest.raises(ValueError):
            make((12, 12, 12), 8, domains_shape=(2, 2, 3))

    def test_too_many_domains_per_axis_rejected(self):
        with pytest.raises(ValueError):
            make((4, 4, 4), 8, domains_shape=(8, 1, 1))

    def test_single_domain(self):
        d = make((10, 10, 10), 1)
        assert d.domains_shape == (1, 1, 1)
        assert d.block_shape(0) == (10, 10, 10)


class TestBlockGeometry:
    def test_coords_roundtrip(self):
        d = make((12, 12, 12), 8)
        for domain in range(8):
            assert d.domain_at(d.coords_of(domain)) == domain

    def test_even_split(self):
        d = make((12, 12, 12), 8)
        for domain in range(8):
            assert d.block_shape(domain) == (6, 6, 6)

    def test_uneven_split_balanced(self):
        d = make((13, 12, 12), 8)
        shapes = {d.block_shape(i)[0] for i in range(8)}
        assert shapes == {6, 7}

    def test_slices_tile_global_grid(self):
        d = make((13, 11, 12), 12)
        cover = np.zeros((13, 11, 12), dtype=int)
        for domain in range(12):
            cover[d.block_slices(domain)] += 1
        assert np.all(cover == 1)

    def test_total_points_conserved(self):
        d = make((13, 11, 7), 6)
        points = sum(np.prod(d.block_shape(i)) for i in range(d.n_domains))
        assert points == 13 * 11 * 7

    def test_max_block_points(self):
        d = make((13, 12, 12), 8)
        assert d.max_block_points() == 7 * 6 * 6

    def test_coords_bounds(self):
        d = make((12, 12, 12), 8)
        with pytest.raises(ValueError):
            d.coords_of(8)
        with pytest.raises(ValueError):
            d.domain_at((2, 0, 0))

    @settings(max_examples=30)
    @given(
        st.tuples(
            st.integers(min_value=4, max_value=24),
            st.integers(min_value=4, max_value=24),
            st.integers(min_value=4, max_value=24),
        ),
        st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    )
    def test_property_blocks_partition_grid(self, shape, n):
        d = Decomposition(GridDescriptor(shape), n)
        cover = np.zeros(shape, dtype=int)
        for domain in range(n):
            cover[d.block_slices(domain)] += 1
        assert np.all(cover == 1)


class TestNeighbors:
    def test_periodic_wrap(self):
        d = make((12, 12, 12), 8)  # 2x2x2
        dom = d.domain_at((1, 0, 0))
        assert d.neighbor(dom, 0, +1) == d.domain_at((0, 0, 0))

    def test_nonperiodic_wall(self):
        d = make((12, 12, 12), 8, pbc=(False, False, False))
        dom = d.domain_at((1, 0, 0))
        assert d.neighbor(dom, 0, +1) is None
        assert d.neighbor(dom, 0, -1) == d.domain_at((0, 0, 0))

    def test_single_domain_periodic_self(self):
        d = make((12, 12, 12), 1)
        assert d.neighbor(0, 0, +1) == 0

    def test_invalid_args(self):
        d = make((12, 12, 12), 8)
        with pytest.raises(ValueError):
            d.neighbor(0, 3, 1)
        with pytest.raises(ValueError):
            d.neighbor(0, 0, 2)


class TestCommunicationAccounting:
    def test_face_points(self):
        d = make((12, 10, 8), 1)
        assert d.face_points(0, 0) == 10 * 8
        assert d.face_points(0, 1) == 12 * 8
        assert d.face_points(0, 2) == 12 * 10

    def test_send_bytes_periodic_cube(self):
        d = make((12, 12, 12), 8)  # blocks 6x6x6, width 2, 8 B/pt
        assert d.send_bytes(0, 0, +1, 2) == 6 * 6 * 2 * 8

    def test_send_bytes_zero_for_wall(self):
        d = make((12, 12, 12), 8, pbc=(False, False, False))
        dom = d.domain_at((1, 0, 0))
        assert d.send_bytes(dom, 0, +1, 2) == 0
        assert d.send_bytes(dom, 0, -1, 2) > 0

    def test_send_bytes_zero_for_self_wrap(self):
        d = make((12, 12, 12), 1)
        assert d.send_bytes(0, 0, +1, 2) == 0

    def test_comm_bytes_six_faces(self):
        d = make((12, 12, 12), 8)
        assert d.comm_bytes(0, 2) == 6 * (6 * 6 * 2 * 8)

    def test_max_comm_bytes(self):
        d = make((12, 12, 12), 8)
        assert max(d.comm_bytes(i, 2) for i in range(8)) == d.comm_bytes(0, 2)

    def test_finer_decomposition_increases_total_surface(self):
        """The physics behind Fig 6: more domains => more aggregate comm."""
        grid = GridDescriptor((192, 192, 192))
        coarse = Decomposition(grid, 64)
        fine = Decomposition(grid, 256)
        total_coarse = sum(coarse.comm_bytes(i, 2) for i in range(64))
        total_fine = sum(fine.comm_bytes(i, 2) for i in range(256))
        assert total_fine > total_coarse

    def test_four_times_finer_split_costs_cube_root_more(self):
        """Flat mode divides grids 4x more than hybrid; aggregate surface
        grows ~ 4^(1/3) ~ 1.59 (the gap between the Fig 6 comm curves)."""
        grid = GridDescriptor((192, 192, 192))
        hybrid = Decomposition(grid, 64)
        flat = Decomposition(grid, 256)
        total_hybrid = sum(hybrid.comm_bytes(i, 2) for i in range(64))
        total_flat = sum(flat.comm_bytes(i, 2) for i in range(256))
        ratio = total_flat / total_hybrid
        assert 1.3 < ratio < 1.9

    @given(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    def test_property_chosen_shape_minimizes_surface(self, n):
        grid = GridDescriptor((96, 96, 96))
        chosen = Decomposition(grid, n)
        chosen_total = sum(chosen.comm_bytes(i, 2) for i in range(n))
        from repro.util.factorize import factorizations_3d

        for alt in factorizations_3d(n):
            if max(alt) > 96:
                continue
            d = Decomposition(grid, n, domains_shape=alt)
            alt_total = sum(d.comm_bytes(i, 2) for i in range(n))
            assert chosen_total <= alt_total + 1e-9
