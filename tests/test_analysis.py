"""Tests for the experiment drivers and formatting (repro.analysis)."""

import pytest

from repro.analysis import (
    ablation_subgroups,
    fig2_rows,
    fig5_rows,
    fig6_rows,
    fig7_rows,
    format_table,
    headline_numbers,
    table1,
)
from repro.netmodel import (
    analytic_bandwidth_curve,
    default_message_sizes,
    measured_bandwidth_curve,
)


class TestTable1:
    def test_nine_rows(self):
        assert len(table1()) == 9

    def test_contents(self):
        rows = dict(table1())
        assert rows["CPU frequency"] == "850 MHz"


class TestFig2:
    def test_sizes_span_paper_axis(self):
        sizes = default_message_sizes()
        assert sizes[0] == 1
        assert sizes[-1] >= 1e6

    def test_measured_matches_analytic(self):
        # one uncontended hop: the replay's time is the model's, bit for bit
        assert measured_bandwidth_curve() == analytic_bandwidth_curve()

    def test_half_bandwidth_near_1e3(self):
        """Fig 2's anchor: ~half the asymptote at 10^3 bytes."""
        points = {p.message_bytes: p for p in measured_bandwidth_curve([1024, 2**23])}
        asymptote = points[2**23].bandwidth
        assert points[1024].bandwidth == pytest.approx(asymptote / 2, rel=0.15)

    def test_saturation_above_1e5(self):
        points = measured_bandwidth_curve([131072, 2**23])
        assert points[0].bandwidth >= 0.9 * points[1].bandwidth

    def test_bandwidth_monotone(self):
        curve = fig2_rows()
        bws = [p.bandwidth for p in curve]
        assert bws == sorted(bws)


class TestFig5:
    def test_all_approaches_present_unbatched(self):
        rows = fig5_rows(batching=False, cores=(512, 1024))
        assert len(rows) == 2
        assert set(rows[0].speedups) == {
            "flat-original",
            "flat-optimized",
            "hybrid-multiple",
            "hybrid-master-only",
        }

    def test_speedups_grow_with_cores(self):
        rows = fig5_rows(batching=True, cores=(512, 1024, 2048, 4096))
        for name in rows[0].speedups:
            series = [r.speedups[name] for r in rows]
            assert series == sorted(series)

    def test_batched_top_two_are_optimized_and_hybrid(self):
        rows = fig5_rows(batching=True, cores=(4096,))
        s = rows[0].speedups
        top_two = sorted(s, key=s.get, reverse=True)[:2]
        assert set(top_two) == {"flat-optimized", "hybrid-multiple"}

    def test_original_is_last_at_scale(self):
        rows = fig5_rows(batching=True, cores=(4096,))
        s = rows[0].speedups
        assert min(s, key=s.get) == "flat-original"

    def test_sequential_point_near_one(self):
        rows = fig5_rows(batching=False, cores=(1,))
        for v in rows[0].speedups.values():
            assert v == pytest.approx(1.0, rel=0.15)


class TestFig6:
    def test_comm_curves_ratio(self):
        rows = fig6_rows(cores=(4096,))
        r = rows[0]
        assert r.flat_comm_mb / r.hybrid_comm_mb == pytest.approx(4 ** (1 / 3), rel=0.15)

    def test_hybrid_wins_from_512(self):
        for r in fig6_rows(cores=(512, 2048, 16384)):
            assert r.times["hybrid-multiple"] < r.times["flat-optimized"]
            assert r.times["hybrid-multiple"] < r.times["flat-original"]

    def test_original_time_rises(self):
        rows = fig6_rows(cores=(1024, 4096, 16384))
        times = [r.times["flat-original"] for r in rows]
        assert times == sorted(times)

    def test_iterations_scale_linearly(self):
        one = fig6_rows(cores=(1024,), n_iterations=1)[0]
        ten = fig6_rows(cores=(1024,), n_iterations=10)[0]
        assert ten.times["flat-original"] == pytest.approx(
            10 * one.times["flat-original"]
        )


class TestFig7:
    def test_reference_point_is_one(self):
        rows = fig7_rows(cores=(1024, 16384))
        assert rows[0].speedups["flat-original"] == pytest.approx(1.0)

    def test_hybrid_reaches_about_16_5(self):
        rows = fig7_rows(cores=(1024, 16384))
        assert rows[-1].speedups["hybrid-multiple"] == pytest.approx(16.5, rel=0.15)

    def test_original_reaches_about_8_5(self):
        rows = fig7_rows(cores=(1024, 16384))
        assert rows[-1].speedups["flat-original"] == pytest.approx(8.5, rel=0.15)

    def test_paper_legend_order_at_16k(self):
        rows = fig7_rows(cores=(1024, 16384))
        s = rows[-1].speedups
        assert (
            s["hybrid-multiple"]
            > s["flat-optimized"]
            > s["hybrid-master-only"]
            > s["flat-original"]
        )


class TestHeadline:
    def test_numbers_near_paper(self):
        h = headline_numbers()
        assert h.speedup_vs_original == pytest.approx(1.94, rel=0.15)
        assert h.utilization_original == pytest.approx(0.36, abs=0.08)
        assert h.utilization_hybrid == pytest.approx(0.70, abs=0.10)
        assert 1.02 < h.hybrid_vs_flat_optimized < 1.3


class TestAblation:
    def test_subgroups_identical_to_hybrid(self):
        """Section VII-A: 'its performance is identical with the Hybrid
        multiple' — decomposition level is the sole cause."""
        subgroup, hybrid = ablation_subgroups()
        assert subgroup.total == pytest.approx(hybrid.total, rel=0.05)
        assert subgroup.comm_bytes_per_node == pytest.approx(
            hybrid.comm_bytes_per_node
        )


class TestFormatting:
    def test_basic_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_alignment(self):
        text = format_table(["col"], [[1], [100]])
        lines = text.splitlines()
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["x"], [[0.123456789]])
        assert "0.1235" in text
