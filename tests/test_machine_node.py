"""Tests for repro.machine.machine assembly and the replay's node state."""

from repro.core.simrun import _replay_messages
from repro.machine import Machine, NodeMode


class TestMachine:
    def test_assembles_partition(self):
        m = Machine(512, NodeMode.VN)
        assert m.n_nodes == 512
        assert m.partition.n_ranks == 2048
        assert m.topology.torus  # 512 nodes form a torus
        assert m.topology.shape == (8, 8, 8)

    def test_small_partition_is_mesh(self):
        m = Machine(64)
        assert not m.topology.torus

    def test_nodes_created_lazily(self):
        # a sender's node joins the replay when its transfer starts; the
        # other 4095 nodes cost nothing
        eng = _replay_messages(Machine(4096), [(7, 8, 0, 1000)])
        assert list(eng.nodes) == [7]

    def test_utilization_without_activity(self):
        assert _replay_messages(Machine(2), []).utilization() == 0.0
