"""Tests for repro.machine.torus — geometry, and transfers on the replay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.simrun import _replay_messages
from repro.machine import Machine
from repro.machine.spec import BGP_SPEC
from repro.machine.torus import DIRECTIONS, TorusTopology

#: wrap-around links at every partition size
TORUS = BGP_SPEC.with_(torus_min_nodes=1)


def make_machine():
    """64 SMP nodes on a 4x4x4 torus: rank r runs on node r."""
    return Machine(64, spec=TORUS)


def replay(messages):
    return _replay_messages(make_machine(), messages)


class TestTopologyGeometry:
    def test_coords_roundtrip(self):
        topo = TorusTopology((3, 4, 5))
        for node in range(topo.n_nodes):
            assert topo.node_at(topo.coords(node)) == node

    def test_coords_c_order(self):
        topo = TorusTopology((2, 3, 4))
        assert topo.coords(0) == (0, 0, 0)
        assert topo.coords(1) == (0, 0, 1)
        assert topo.coords(4) == (0, 1, 0)
        assert topo.coords(12) == (1, 0, 0)

    def test_neighbor_wraps_on_torus(self):
        topo = TorusTopology((4, 4, 4), torus=True)
        edge = topo.node_at((3, 0, 0))
        assert topo.neighbor(edge, 0, +1) == topo.node_at((0, 0, 0))

    def test_neighbor_none_at_mesh_boundary(self):
        topo = TorusTopology((4, 4, 4), torus=False)
        edge = topo.node_at((3, 0, 0))
        assert topo.neighbor(edge, 0, +1) is None
        assert topo.neighbor(edge, 0, -1) == topo.node_at((2, 0, 0))

    def test_six_directions(self):
        assert len(DIRECTIONS) == 6
        assert len(set(DIRECTIONS)) == 6

    def test_invalid_dim_step(self):
        topo = TorusTopology((2, 2, 2))
        with pytest.raises(ValueError):
            topo.neighbor(0, 3, 1)
        with pytest.raises(ValueError):
            topo.neighbor(0, 0, 2)

    def test_node_bounds(self):
        topo = TorusTopology((2, 2, 2))
        with pytest.raises(ValueError):
            topo.coords(8)

    def test_hop_distance_torus_uses_wraparound(self):
        topo = TorusTopology((8, 1, 1), torus=True)
        a, b = topo.node_at((0, 0, 0)), topo.node_at((7, 0, 0))
        assert topo.hop_distance(a, b) == 1

    def test_hop_distance_mesh_no_wraparound(self):
        topo = TorusTopology((8, 1, 1), torus=False)
        a, b = topo.node_at((0, 0, 0)), topo.node_at((7, 0, 0))
        assert topo.hop_distance(a, b) == 7

    def test_route_dimension_ordered(self):
        topo = TorusTopology((4, 4, 4))
        src = topo.node_at((0, 0, 0))
        dst = topo.node_at((1, 2, 1))
        route = topo.route(src, dst)
        dims = [dim for _, dim, _ in route]
        assert dims == sorted(dims)
        assert len(route) == topo.hop_distance(src, dst) == 4

    def test_route_empty_for_self(self):
        topo = TorusTopology((4, 4, 4))
        assert topo.route(5, 5) == []

    def test_max_hops(self):
        """The diameter: 4+4+4 links around the torus, 7+7+7 across the
        mesh from the corner node."""
        for torus, diameter in ((True, 12), (False, 21)):
            topo = TorusTopology((8, 8, 8), torus=torus)
            assert max(topo.hop_distance(0, n) for n in range(512)) == diameter

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    def test_property_route_length_is_distance(self, a, b):
        topo = TorusTopology((4, 4, 4), torus=True)
        assert len(topo.route(a, b)) == topo.hop_distance(a, b)

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    def test_property_distance_symmetric(self, a, b):
        topo = TorusTopology((4, 4, 4), torus=True)
        assert topo.hop_distance(a, b) == topo.hop_distance(b, a)

    @given(
        st.integers(min_value=0, max_value=26),
        st.integers(min_value=0, max_value=26),
        st.booleans(),
    )
    def test_property_route_reaches_destination(self, a, b, torus):
        topo = TorusTopology((3, 3, 3), torus=torus)
        here = a
        for node, dim, step in topo.route(a, b):
            assert node == here
            nxt = topo.neighbor(here, dim, step)
            assert nxt is not None
            here = nxt
        assert here == b

    @given(st.integers(min_value=0, max_value=511), st.integers(min_value=0, max_value=511))
    def test_property_distance_bounded_by_diameter(self, a, b):
        topo = TorusTopology((8, 8, 8), torus=True)
        assert topo.hop_distance(a, b) <= 12  # the diameter, test_max_hops


class TestTorusNetworkTransfers:
    """Transfers on the replay core: link timing, contention, accounting."""

    def test_single_hop_time_matches_model(self):
        nbytes = 100_000
        eng = replay([(0, 1, 0, nbytes)])
        assert eng.total == pytest.approx(BGP_SPEC.torus.message_time(nbytes, hops=1))

    def test_multi_hop_time(self):
        topo = make_machine().topology
        src, dst = topo.node_at((0, 0, 0)), topo.node_at((2, 2, 0))
        eng = replay([(src, dst, 0, 1000)])
        assert eng.total == pytest.approx(BGP_SPEC.torus.message_time(1000, hops=4))

    def test_self_transfer_cheap(self):
        eng = replay([(3, 3, 0, 10_000_000)])
        assert eng.total == pytest.approx(BGP_SPEC.torus.message_overhead)

    def test_contention_serializes_shared_link(self):
        """Two messages over the same directed link take twice as long."""
        nbytes = 1_000_000
        one = BGP_SPEC.torus.message_time(nbytes, 1)
        assert replay([(0, 1, 0, nbytes)]).total == pytest.approx(one)
        eng = replay([(0, 1, 0, nbytes), (0, 1, 1, nbytes)])
        assert eng.total == pytest.approx(2 * one)

    def test_opposite_directions_do_not_contend(self):
        """Links are bidirectional: 0->1 and 1->0 proceed concurrently."""
        nbytes = 1_000_000
        eng = replay([(0, 1, 0, nbytes), (1, 0, 0, nbytes)])
        assert eng.total == pytest.approx(BGP_SPEC.torus.message_time(nbytes, 1))

    def test_six_directions_concurrent(self):
        """The key Section V fact: all six links usable simultaneously."""
        topo = make_machine().topology
        center = topo.node_at((1, 1, 1))
        nbytes = 500_000
        msgs = [
            (center, topo.neighbor(center, dim, step), 0, nbytes)
            for dim, step in DIRECTIONS
        ]
        # All six transfers overlap: total time is one message time.
        assert replay(msgs).total == pytest.approx(
            BGP_SPEC.torus.message_time(nbytes, 1)
        )

    def test_bytes_accounting(self):
        eng = replay([(0, 1, 0, 12345)])
        assert eng.torus_bytes[0] == 12345
        assert 1 not in eng.torus_bytes

    def test_concurrent_bidirectional_exchange_no_deadlock(self):
        """A ring of simultaneous exchanges completes (deadlock-freedom)."""
        topo = make_machine().topology
        ring = [topo.node_at((x, 0, 0)) for x in range(4)]
        msgs = [(ring[i], ring[(i + 1) % 4], 0, 100_000) for i in range(4)]
        eng = replay(msgs)
        assert eng.messages_sent == 4
        assert not any(eng.posted.values())

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=1, max_value=10**6),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_property_random_transfer_storm_completes(self, transfers):
        """Arbitrary concurrent transfers never deadlock and all complete."""
        msgs = [(src, dst, 0, nb) for src, dst, nb in transfers]
        eng = _replay_messages(Machine(8, spec=TORUS), msgs)
        assert eng.messages_sent == len(transfers)
        assert not any(eng.posted.values())
