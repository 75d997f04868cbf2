"""Tests for repro.machine.spec — Table I constants and the message model."""

import pytest

from repro.machine.spec import (
    BGP_SPEC,
    CoreSpec,
    MachineSpec,
    NodeSpec,
    TorusSpec,
    TreeSpec,
    table1_rows,
)
from repro.util.units import GB, MB, US


class TestTable1Constants:
    """The defaults must reproduce Table I of the paper exactly."""

    def test_node_has_four_ppc450_cores(self):
        assert BGP_SPEC.node.n_cores == 4

    def test_cpu_frequency_850mhz(self):
        assert BGP_SPEC.node.core.frequency_hz == pytest.approx(850e6)

    def test_l1_64kb_per_core(self):
        assert BGP_SPEC.node.core.l1_bytes == 64 * 1024

    def test_l3_8mb_shared(self):
        assert BGP_SPEC.node.l3_bytes == 8 * 1024 * 1024

    def test_main_memory_2gb(self):
        assert BGP_SPEC.node.memory_bytes == 2 * GB

    def test_memory_bandwidth(self):
        assert BGP_SPEC.node.memory_bandwidth == pytest.approx(13.6 * GB)

    def test_peak_performance_13_6_gflops(self):
        # 4 cores x 850 MHz x 4 flops/cycle = 13.6 Gflops
        assert BGP_SPEC.node.peak_flops == pytest.approx(13.6e9)

    def test_torus_aggregate_5_1_gbps(self):
        # 6 x 2 x 425 MB/s = 5.1 GB/s
        assert BGP_SPEC.torus.aggregate_bandwidth == pytest.approx(5.1 * GB)

    def test_table1_rows_render(self):
        rows = dict(table1_rows())
        assert rows["Node CPU"] == "4 PowerPC 450 cores"
        assert rows["CPU frequency"] == "850 MHz"
        assert rows["L1 cache (private)"] == "64KB per core"
        assert rows["L3 cache (shared)"] == "8MB"
        assert rows["Main memory"] == "2 GB"
        assert rows["Main memory bandwidth"] == "13.6 GB/s"
        assert rows["Peak performance"] == "13.6 Gflops/node"
        assert "5.1GB/s" in rows["Torus bandwidth"]

    def test_table1_has_nine_rows(self):
        assert len(table1_rows()) == 9


class TestMessageModel:
    """The latency-bandwidth model must match Figure 2's anchor points."""

    def test_message_time_monotone_in_size(self):
        t = BGP_SPEC.torus
        sizes = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000]
        times = [t.message_time(s) for s in sizes]
        assert times == sorted(times)

    def test_half_bandwidth_near_1e3_bytes(self):
        """Fig 2: half the asymptotic bandwidth at ~10^3 bytes."""
        t = BGP_SPEC.torus
        s_half = t.message_overhead * t.effective_bandwidth
        assert 500 <= s_half <= 2000
        assert t.bandwidth(s_half) == pytest.approx(t.effective_bandwidth / 2)

    def test_saturation_above_1e5_bytes(self):
        """Fig 2: message sizes > 10^5 bytes reach the asymptote."""
        t = BGP_SPEC.torus
        assert t.bandwidth(1e5) >= 0.90 * t.effective_bandwidth
        assert t.bandwidth(1e7) >= 0.99 * t.effective_bandwidth

    def test_tiny_messages_latency_bound(self):
        t = BGP_SPEC.torus
        assert t.message_time(1) == pytest.approx(t.message_overhead, rel=0.01)
        assert t.bandwidth(1) < 1 * MB

    def test_asymptote_below_raw_link_rate(self):
        t = BGP_SPEC.torus
        assert t.effective_bandwidth < t.link_bandwidth

    def test_multi_hop_adds_latency(self):
        t = BGP_SPEC.torus
        assert t.message_time(1000, hops=3) == pytest.approx(
            t.message_time(1000, hops=1) + 2 * t.per_hop_latency
        )

    def test_zero_bytes_allowed(self):
        assert BGP_SPEC.torus.message_time(0) == pytest.approx(
            BGP_SPEC.torus.message_overhead
        )

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            BGP_SPEC.torus.message_time(-1)

    def test_zero_hops_rejected(self):
        with pytest.raises(ValueError):
            BGP_SPEC.torus.message_time(100, hops=0)

    def test_bandwidth_of_zero_bytes_is_zero(self):
        assert BGP_SPEC.torus.bandwidth(0) == 0.0


class TestTreeSpec:
    def test_single_node_free(self):
        assert TreeSpec().collective_time(1000, 1) == 0.0

    def test_grows_logarithmically(self):
        tree = TreeSpec()
        t512 = tree.collective_time(0, 512)
        t1024 = tree.collective_time(0, 1024)
        assert t1024 == pytest.approx(t512 + tree.per_stage_latency)

    def test_payload_streams_once(self):
        tree = TreeSpec()
        base = tree.collective_time(0, 64)
        with_payload = tree.collective_time(8 * MB, 64)
        assert with_payload == pytest.approx(base + 8 * MB / tree.bandwidth)

    def test_invalid_nodes_rejected(self):
        with pytest.raises(ValueError):
            TreeSpec().collective_time(0, 0)


class TestSpecImmutability:
    def test_specs_frozen(self):
        with pytest.raises(Exception):
            BGP_SPEC.node = NodeSpec()  # type: ignore[misc]
        with pytest.raises(Exception):
            BGP_SPEC.torus.link_bandwidth = 0  # type: ignore[misc]

    def test_with_returns_modified_copy(self):
        fast = BGP_SPEC.with_(stencil_point_time=1e-9)
        assert fast.stencil_point_time == 1e-9
        assert BGP_SPEC.stencil_point_time != 1e-9
        assert fast.node == BGP_SPEC.node

    def test_custom_spec_composes(self):
        spec = MachineSpec(
            node=NodeSpec(core=CoreSpec(frequency_hz=1e9), n_cores=8),
            torus=TorusSpec(link_bandwidth=1 * GB),
        )
        assert spec.node.peak_flops == pytest.approx(8 * 4e9)
        assert spec.torus.aggregate_bandwidth == pytest.approx(12 * GB)
