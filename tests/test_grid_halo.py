"""Tests for halo geometry and LocalGrid scatter/gather."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import (
    Decomposition,
    GridDescriptor,
    HaloSpec,
    LocalGrid,
    gather,
    halo_messages,
    scatter,
)
from repro.grid.halo import apply_local_wraps, zero_boundary_ghosts


def make(shape=(12, 12, 12), n=8, pbc=(True, True, True)):
    return Decomposition(GridDescriptor(shape, pbc=pbc), n)


class TestHaloSpec:
    def test_padded_shape(self):
        assert HaloSpec(2).padded_shape((6, 6, 6)) == (10, 10, 10)

    def test_interior(self):
        spec = HaloSpec(2)
        inner = spec.interior((10, 10, 10))
        assert inner == (slice(2, 8), slice(2, 8), slice(2, 8))

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            HaloSpec(0)


class TestHaloMessages:
    def test_six_messages_for_interior_periodic_domain(self):
        d = make()
        msgs = halo_messages(d, 0, 2)
        assert len(msgs) == 6
        assert {(m.dim, m.step) for m in msgs} == {
            (0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1),
        }

    def test_message_sizes(self):
        d = make()  # blocks 6x6x6
        for m in halo_messages(d, 0, 2):
            assert m.n_points == 2 * 6 * 6
            assert m.nbytes == 2 * 6 * 6 * 8

    def test_wall_elides_messages(self):
        d = make(pbc=(False, False, False))
        corner = d.domain_at((0, 0, 0))
        msgs = halo_messages(d, corner, 2)
        assert len(msgs) == 3  # only +x, +y, +z neighbours exist

    def test_single_domain_periodic_all_local_wraps(self):
        d = make((8, 8, 8), 1)
        msgs = halo_messages(d, 0, 2)
        assert len(msgs) == 6
        assert all(m.is_local_wrap for m in msgs)

    def test_block_smaller_than_halo_rejected(self):
        d = make((8, 8, 8), 8)  # blocks 4x4x4: fine for width 2
        halo_messages(d, 0, 2)
        with pytest.raises(ValueError):
            halo_messages(d, 0, 5)

    def test_tags_unique_per_direction(self):
        d = make()
        directions = [(m.dim, m.step) for m in halo_messages(d, 0, 2)]
        assert sorted(directions) == [
            (dim, step) for dim in range(3) for step in (-1, 1)
        ]

    def test_send_recv_slab_shapes_match(self):
        d = make((13, 11, 12), 8)
        for domain in range(8):
            for m in halo_messages(d, domain, 2):
                send_shape = tuple(s.stop - s.start for s in m.send_slices)
                recv_shape = tuple(s.stop - s.start for s in m.recv_slices)
                assert send_shape == recv_shape
                assert np.prod(send_shape) == m.n_points


class TestScatterGather:
    def test_roundtrip(self):
        d = make((13, 11, 12), 8)
        gd = d.grid
        original = gd.random(seed=1)
        locals_ = scatter(original, d, HaloSpec(2))
        assert np.array_equal(gather(locals_), original)

    def test_interior_matches_block(self):
        d = make()
        a = d.grid.random(seed=2)
        locals_ = scatter(a, d, HaloSpec(2))
        for lg in locals_:
            assert np.array_equal(lg.interior, a[d.block_slices(lg.domain)])

    def test_gather_requires_all_domains(self):
        d = make()
        locals_ = scatter(d.grid.zeros(), d, HaloSpec(2))
        with pytest.raises(ValueError):
            gather(locals_[:-1])
        with pytest.raises(ValueError):
            gather([locals_[0]] * 8)
        with pytest.raises(ValueError):
            gather([])

    def test_localgrid_shape_validation(self):
        d = make()
        with pytest.raises(ValueError):
            LocalGrid(d, 0, HaloSpec(2), data=np.zeros((5, 5, 5)))

    def test_localgrid_default_array(self):
        d = make()
        lg = LocalGrid(d, 0, HaloSpec(2))
        assert lg.data.shape == (10, 10, 10)
        assert lg.data.dtype == np.float64


class TestExchangeCorrectness:
    """Simulate a full halo exchange in-process and verify every ghost."""

    @staticmethod
    def exchange(locals_, d, width):
        """Apply all halo messages by direct array copies."""
        for src in range(d.n_domains):
            for m in halo_messages(d, src, width):
                if m.is_local_wrap:
                    continue  # handled via apply_local_wraps below
                locals_[m.dst_domain].data[m.recv_slices] = (
                    locals_[src].data[m.send_slices]
                )
        for lg in locals_:
            apply_local_wraps(lg.data, halo_messages(d, lg.domain, width))
            zero_boundary_ghosts(lg.data, d, lg.domain, width)

    @pytest.mark.parametrize("pbc", [(True, True, True), (False, False, False),
                                     (True, False, True)])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_ghosts_match_global_neighbourhood(self, pbc, n):
        width = 2
        d = make((12, 10, 8), n, pbc=pbc)
        gd = d.grid
        a = gd.random(seed=5)
        locals_ = scatter(a, d, HaloSpec(width))
        self.exchange(locals_, d, width)

        # Build the globally-padded oracle: wrap or zero.
        padded_global = np.zeros(tuple(s + 2 * width for s in gd.shape))
        padded_global[width:-width, width:-width, width:-width] = a
        for axis in range(3):
            if not pbc[axis]:
                continue
            lo: list[slice] = [slice(width, -width)] * 3
            hi: list[slice] = [slice(width, -width)] * 3
            ghost_lo: list[slice] = [slice(width, -width)] * 3
            ghost_hi: list[slice] = [slice(width, -width)] * 3
            lo[axis] = slice(width, 2 * width)
            hi[axis] = slice(padded_global.shape[axis] - 2 * width,
                             padded_global.shape[axis] - width)
            ghost_lo[axis] = slice(0, width)
            ghost_hi[axis] = slice(padded_global.shape[axis] - width, None)
            padded_global[tuple(ghost_hi)] = padded_global[tuple(lo)]
            padded_global[tuple(ghost_lo)] = padded_global[tuple(hi)]

        for lg in locals_:
            slices = d.block_slices(lg.domain)
            view = padded_global[
                slices[0].start: slices[0].stop + 2 * width,
                slices[1].start: slices[1].stop + 2 * width,
                slices[2].start: slices[2].stop + 2 * width,
            ]
            block = d.block_shape(lg.domain)
            # Interior must match exactly.
            inner = tuple(slice(width, width + b) for b in block)
            np.testing.assert_array_equal(lg.data[inner], view[inner])
            # Each of the six face slabs (the regions the stencil reads)
            # must match; ghost *corners* are never exchanged and are not
            # read by an axis-aligned stencil, so they are excluded.
            for dim in range(3):
                for lo_hi in (slice(0, width),
                              slice(width + block[dim], 2 * width + block[dim])):
                    slab = list(inner)
                    slab[dim] = lo_hi
                    np.testing.assert_array_equal(
                        lg.data[tuple(slab)],
                        view[tuple(slab)],
                        err_msg=f"domain {lg.domain} dim {dim} ghosts wrong",
                    )

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([(8, 8, 8), (12, 10, 8), (9, 12, 15)]),
        st.sampled_from([1, 2, 4, 8]),
        st.integers(min_value=1, max_value=2),
    )
    def test_property_exchange_preserves_interior(self, shape, n, width):
        d = make(shape, n)
        a = d.grid.random(seed=7)
        locals_ = scatter(a, d, HaloSpec(width))
        self.exchange(locals_, d, width)
        assert np.array_equal(gather(locals_), a)
