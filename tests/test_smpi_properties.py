"""Property-based tests of simulated point-to-point delivery + placement ablation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FDJob, FLAT_OPTIMIZED, simulate_fd
from repro.core.simrun import _replay_messages
from repro.grid import GridDescriptor
from repro.machine import Machine, NodeMode


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),  # src
            st.integers(min_value=0, max_value=7),  # dst
            st.integers(min_value=0, max_value=3),  # tag
            st.integers(min_value=0, max_value=10**6),  # bytes
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_every_message_is_delivered(messages):
    """Arbitrary message sets on the replay core deliver each message once."""
    machine = Machine(8, NodeMode.SMP)
    eng = _replay_messages(machine, messages)
    # every receive met its message and no message was left over: each
    # one was delivered exactly once
    assert not any(eng.posted.values())
    assert not any(eng.unexpected.values())
    assert eng.messages_sent == len(messages)
    node = machine.partition.node_of_rank
    inter_node = sum(nb for src, dst, _tag, nb in messages if node(src) != node(dst))
    assert sum(eng.torus_bytes.values()) == inter_node


class TestPlacementAblation:
    def test_spread_never_faster_than_cyclic(self):
        job = FDJob(GridDescriptor((48, 48, 48)), 8)
        cyc = simulate_fd(job, FLAT_OPTIMIZED, 32, 2, placement="cyclic")
        spr = simulate_fd(job, FLAT_OPTIMIZED, 32, 2, placement="spread")
        assert spr.total >= cyc.total

    def test_placement_does_not_change_traffic_volume(self):
        job = FDJob(GridDescriptor((48, 48, 48)), 8)
        cyc = simulate_fd(job, FLAT_OPTIMIZED, 32, 2, placement="cyclic")
        spr = simulate_fd(job, FLAT_OPTIMIZED, 32, 2, placement="spread")
        assert cyc.messages == spr.messages

    def test_cyclic_requires_divisibility(self):
        # flat @24 cores: domain grid (2,3,4) does not divide node grid (1,2,3)
        job = FDJob(GridDescriptor((48, 48, 48)), 4)
        with pytest.raises(ValueError, match="cyclic placement"):
            simulate_fd(job, FLAT_OPTIMIZED, 24, placement="cyclic")

    def test_invalid_placement_rejected(self):
        job = FDJob(GridDescriptor((48, 48, 48)), 4)
        with pytest.raises(ValueError, match="placement"):
            simulate_fd(job, FLAT_OPTIMIZED, 8, placement="random")
