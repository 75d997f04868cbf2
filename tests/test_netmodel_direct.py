"""Direct tests for repro.netmodel and remaining machine edges."""

import pytest

from repro.core.simrun import _replay_messages
from repro.machine import Machine, NodeMode
from repro.machine.spec import BGP_SPEC, TorusSpec
from repro.netmodel import (
    BandwidthPoint,
    analytic_bandwidth_curve,
    default_message_sizes,
    measured_bandwidth_curve,
)


class TestAnalyticCurve:
    def test_default_sizes_are_powers_of_two(self):
        sizes = default_message_sizes()
        assert all(s & (s - 1) == 0 for s in sizes)
        assert sizes == sorted(sizes)

    def test_points_carry_consistent_fields(self):
        for p in analytic_bandwidth_curve([10, 1000]):
            assert isinstance(p, BandwidthPoint)
            assert p.bandwidth == pytest.approx(p.message_bytes / p.time)

    def test_custom_spec_shifts_curve(self):
        fast = BGP_SPEC.with_(torus=TorusSpec(effective_bandwidth=750e6))
        default = analytic_bandwidth_curve([10**6])[0]
        faster = analytic_bandwidth_curve([10**6], spec=fast)[0]
        assert faster.bandwidth > default.bandwidth

    def test_measured_uses_one_hop_neighbours(self):
        # the measured curve's asymptote must match the analytic one-hop model
        m = measured_bandwidth_curve([10**7])[0]
        a = analytic_bandwidth_curve([10**7])[0]
        assert m.bandwidth == pytest.approx(a.bandwidth, rel=1e-6)


class TestMachineEdges:
    def test_dual_mode_machine(self):
        m = Machine(2, NodeMode.DUAL)
        assert m.partition.n_ranks == 4
        assert [m.partition.node_of_rank(r) for r in range(4)] == [0, 0, 1, 1]

    def test_two_machines_do_not_share_state(self):
        a, b = Machine(4), Machine(4)
        ra = _replay_messages(a, [(0, 1, 0, 1000)])
        assert ra.torus_bytes.get(0) == 1000
        assert a.sim.now > 0 and b.sim.now == 0.0
        assert _replay_messages(b, []).torus_bytes.get(0) is None

    def test_spec_with_composes(self):
        spec = BGP_SPEC.with_(stencil_point_time=1e-9).with_(
            halo_compute_exponent=0.1
        )
        assert spec.stencil_point_time == 1e-9
        assert spec.halo_compute_exponent == 0.1
        assert spec.torus == BGP_SPEC.torus

    def test_simrun_single_core_and_dual(self):
        from repro.core import FDJob, FLAT_OPTIMIZED, simulate_fd
        from repro.grid import GridDescriptor

        job = FDJob(GridDescriptor((16, 16, 16)), 2)
        one = simulate_fd(job, FLAT_OPTIMIZED, 1)
        two = simulate_fd(job, FLAT_OPTIMIZED, 2)
        assert one.messages == 0
        assert two.total < one.total  # two cores beat one
