"""Tests for repro.machine.partition."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.machine.partition import NodeMode, Partition, partition_shape


class TestNodeMode:
    def test_ranks_per_node(self):
        assert NodeMode.SMP.ranks_per_node == 1
        assert NodeMode.DUAL.ranks_per_node == 2
        assert NodeMode.VN.ranks_per_node == 4

    def test_cores_per_rank(self):
        assert NodeMode.SMP.cores_per_rank == 4
        assert NodeMode.DUAL.cores_per_rank == 2
        assert NodeMode.VN.cores_per_rank == 1


class TestPartitionShape:
    def test_midplane_is_8x8x8(self):
        assert partition_shape(512) == (8, 8, 8)

    def test_rack_is_8x8x16(self):
        assert partition_shape(1024) == (8, 8, 16)

    def test_four_racks_paper_machine(self):
        assert partition_shape(4096) == (8, 16, 32)

    def test_shape_product_matches(self):
        for n in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384):
            assert math.prod(partition_shape(n)) == n

    def test_unknown_count_falls_back_to_cubic(self):
        assert math.prod(partition_shape(27)) == 27
        assert partition_shape(27) == (3, 3, 3)

    def test_single_node(self):
        assert partition_shape(1) == (1, 1, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            partition_shape(0)


class TestPartition:
    def test_torus_rule_512_nodes(self):
        """Section V: >= 512 nodes form a torus, fewer only a mesh."""
        assert not Partition(256).is_torus
        assert Partition(512).is_torus
        assert Partition(4096).is_torus

    def test_rank_count_by_mode(self):
        assert Partition(64, NodeMode.SMP).n_ranks == 64
        assert Partition(64, NodeMode.DUAL).n_ranks == 128
        assert Partition(64, NodeMode.VN).n_ranks == 256

    def test_node_of_rank_vn(self):
        p = Partition(4, NodeMode.VN)
        assert [p.node_of_rank(r) for r in range(16)] == [
            0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
        ]

    def test_ranks_of_node_roundtrip(self):
        p = Partition(8, NodeMode.VN)
        for node in range(8):
            ranks = range(4 * node, 4 * node + 4)
            assert [p.node_of_rank(r) for r in ranks] == [node] * 4
            assert [p.core_slot_of_rank(r) for r in ranks] == [0, 1, 2, 3]

    def test_rank_bounds_checked(self):
        p = Partition(4, NodeMode.VN)
        with pytest.raises(ValueError):
            p.node_of_rank(16)
        with pytest.raises(ValueError):
            p.core_slot_of_rank(-1)

    @given(
        st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]),
        st.sampled_from(list(NodeMode)),
    )
    def test_property_every_rank_has_exactly_one_node(self, n_nodes, mode):
        p = Partition(n_nodes, mode)
        seen = [p.node_of_rank(r) for r in range(p.n_ranks)]
        # every node appears exactly ranks_per_node times
        for node in range(n_nodes):
            assert seen.count(node) == mode.ranks_per_node


class TestMappingOrders:
    """Ranks fill nodes core first (BG/P's TXYZ), the one order the DES
    replay places domains by."""

    def test_txyz_groups_consecutive_ranks(self):
        p = Partition(4, NodeMode.VN)
        assert [p.node_of_rank(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [p.core_slot_of_rank(r) for r in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_smp_mode_mapping_is_identity(self):
        p = Partition(8, NodeMode.SMP)
        assert [p.node_of_rank(r) for r in range(8)] == list(range(8))

    def test_context_core_respects_mapping(self):
        from repro.core.simrun import _replay_messages
        from repro.machine import Machine

        eng = _replay_messages(Machine(2, NodeMode.VN), [])
        # rank 6: node 1, core slot 2
        assert eng.rank_node[6] == 1
        assert eng.rank_core[6] == 2
