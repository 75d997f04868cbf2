"""Tests for grid redistribution between decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dft.checkpoint import redistribute_blocks
from repro.grid import Decomposition, GridDescriptor
from repro.grid.redistribute import Transfer, transfer_plan


class TestTransferPlan:
    def test_identity_layout_is_all_self_transfers(self):
        gd = GridDescriptor((8, 8, 8))
        d = Decomposition(gd, 4)
        plan = transfer_plan(d, d)
        assert all(t.src == t.dst for t in plan)
        assert len(plan) == 4

    def test_plan_tiles_the_grid_exactly_once(self):
        gd = GridDescriptor((12, 10, 8))
        old = Decomposition(gd, 4, domains_shape=(4, 1, 1))
        new = Decomposition(gd, 4, domains_shape=(1, 1, 4))
        plan = transfer_plan(old, new)
        cover = np.zeros(gd.shape, dtype=int)
        for t in plan:
            cover[t.global_slices] += 1
        assert np.all(cover == 1)

    def test_points_conserved(self):
        gd = GridDescriptor((12, 12, 12))
        plan = transfer_plan(Decomposition(gd, 8), Decomposition(gd, 8, (8, 1, 1)))
        points = sum(
            np.prod([s.stop - s.start for s in t.global_slices]) for t in plan
        )
        assert points == gd.n_points

    def test_slab_belongs_to_both_blocks(self):
        gd = GridDescriptor((12, 12, 12))
        old = Decomposition(gd, 8)
        new = Decomposition(gd, 8, (2, 4, 1))
        for t in transfer_plan(old, new):
            for g, o, n in zip(
                t.global_slices, old.block_slices(t.src), new.block_slices(t.dst)
            ):
                assert o.start <= g.start and g.stop <= o.stop
                assert n.start <= g.start and g.stop <= n.stop

    def test_mismatched_grids_rejected(self):
        a = Decomposition(GridDescriptor((8, 8, 8)), 2)
        b = Decomposition(GridDescriptor((8, 8, 10)), 2)
        with pytest.raises(ValueError):
            transfer_plan(a, b)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([(12, 12, 12), (13, 11, 9), (16, 8, 8)]),
        st.sampled_from([1, 2, 4, 6, 8]),
        st.sampled_from([1, 2, 4, 6, 8]),
    )
    def test_property_plan_is_a_partition(self, shape, n_old, n_new):
        gd = GridDescriptor(shape)
        old = Decomposition(gd, n_old)
        new = Decomposition(gd, n_new)
        cover = np.zeros(shape, dtype=int)
        for t in transfer_plan(old, new):
            cover[t.global_slices] += 1
        assert np.all(cover == 1)


class TestRedistribute:
    """The transfer plan executed by the checkpoint path's
    ``redistribute_blocks``: any layout pair reassembles the field."""

    def roundtrip(self, shape, old_shape, new_shape, n_ranks, seed=0):
        gd = GridDescriptor(shape)
        old = Decomposition(gd, n_ranks, old_shape)
        new = Decomposition(gd, n_ranks, new_shape)
        a = gd.random(seed=seed)
        old_blocks = {r: a[old.block_slices(r)] for r in range(n_ranks)}
        new_blocks = redistribute_blocks(old_blocks, old, new)
        b = np.empty_like(a)
        for r, block in new_blocks.items():
            b[new.block_slices(r)] = block
        return a, b

    def test_x_slabs_to_z_slabs(self):
        a, b = self.roundtrip((12, 12, 12), (4, 1, 1), (1, 1, 4), 4)
        np.testing.assert_array_equal(a, b)

    def test_blocks_to_pencils(self):
        a, b = self.roundtrip((12, 12, 12), (2, 2, 2), (1, 4, 2), 8)
        np.testing.assert_array_equal(a, b)

    def test_identity_redistribution(self):
        a, b = self.roundtrip((10, 10, 10), (2, 1, 1), (2, 1, 1), 2)
        np.testing.assert_array_equal(a, b)

    def test_uneven_blocks(self):
        a, b = self.roundtrip((13, 11, 9), (3, 1, 1), (1, 3, 1), 3)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([(2, 2, 2), (8, 1, 1), (1, 8, 1), (4, 2, 1), (1, 2, 4)]),
        st.sampled_from([(2, 2, 2), (8, 1, 1), (2, 1, 4), (1, 4, 2)]),
        st.integers(min_value=0, max_value=1000),
    )
    def test_property_any_layout_pair_roundtrips(self, old_shape, new_shape, seed):
        a, b = self.roundtrip((16, 16, 16), old_shape, new_shape, 8, seed=seed)
        np.testing.assert_array_equal(a, b)


class TestBandRegroupPlan:
    def plans(self, n_ranks_old, nb_old, n_ranks_new, nb_new, n_bands=8):
        from repro.grid import BandGroups, band_regroup_plan

        old = BandGroups(n_ranks_old, n_bands, nb_old)
        new = BandGroups(n_ranks_new, n_bands, nb_new)
        return old, new, band_regroup_plan(old, new)

    def test_one_move_per_band_in_band_order(self):
        _, _, plan = self.plans(8, 4, 4, 2)
        assert [m.band for m in plan] == list(range(8))

    def test_moves_partition_both_layouts(self):
        # src slots tile the old layout exactly once, dst slots the new
        old, new, plan = self.plans(8, 4, 6, 2)
        src = {(m.src_group, m.src_index) for m in plan}
        dst = {(m.dst_group, m.dst_index) for m in plan}
        assert src == {
            (g, i)
            for g in range(old.n_groups)
            for i in range(old.bands_per_group)
        }
        assert dst == {
            (g, i)
            for g in range(new.n_groups)
            for i in range(new.bands_per_group)
        }

    def test_identity_layout_is_identity_plan(self):
        _, _, plan = self.plans(8, 4, 8, 4)
        for m in plan:
            assert (m.src_group, m.src_index) == (m.dst_group, m.dst_index)

    def test_regather_to_single_group(self):
        # the recovery path: all bands land in group 0, in band order
        _, _, plan = self.plans(8, 4, 3, 1)
        for m in plan:
            assert m.dst_group == 0 and m.dst_index == m.band

    def test_growing_groups_is_valid(self):
        # direction-agnostic geometry: 1 -> 4 groups splits the stack
        _, new, plan = self.plans(2, 1, 4, 4)
        for m in plan:
            assert m.src_group == 0 and m.src_index == m.band
            assert m.dst_group == m.band // new.bands_per_group

    def test_band_count_mismatch_rejected(self):
        from repro.grid import BandGroups, band_regroup_plan

        with pytest.raises(ValueError, match="identical band counts"):
            band_regroup_plan(
                BandGroups(4, 8, 2), BandGroups(4, 4, 2)
            )
