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
from repro.analysis.experiments import FIG5_CORES, FIG7_JOB
from repro.core import FLAT_OPTIMIZED, PerformanceModel
from repro.netmodel import (
    analytic_bandwidth_curve,
    default_message_sizes,
    measured_bandwidth_curve,
)
from repro.util.units import MB

APPROACH_NAMES = {
    "flat-original",
    "flat-optimized",
    "hybrid-multiple",
    "hybrid-master-only",
}


class TestTable1:
    def test_nine_rows(self):
        assert len(table1()) == 9

    def test_contents(self):
        rows = dict(table1())
        assert rows["CPU frequency"] == "850 MHz"

    def test_every_row_matches_the_paper(self):
        assert dict(table1()) == {
            "Node CPU": "4 PowerPC 450 cores",
            "CPU frequency": "850 MHz",
            "L1 cache (private)": "64KB per core",
            "L2 cache (private)": "Seven stream prefetching",
            "L3 cache (shared)": "8MB",
            "Main memory": "2 GB",
            "Main memory bandwidth": "13.6 GB/s",
            "Peak performance": "13.6 Gflops/node",
            "Torus bandwidth": "6 x 2 x 425MB/s = 5.1GB/s",
        }


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

    def test_decade_sweep_shape(self):
        """The paper's axis, one point per decade 10^0..10^7 bytes."""
        bw = {
            p.message_bytes: p.bandwidth
            for p in measured_bandwidth_curve([10**e for e in range(8)])
        }
        asymptote = bw[10**7]
        assert bw[10**3] == pytest.approx(asymptote / 2, rel=0.10)
        # saturation needs >= 10^5 bytes; 10^4 is still clearly below
        assert bw[10**5] >= 0.95 * asymptote
        assert bw[10**4] < 0.95 * asymptote
        # just below the raw 425 MB/s link rate, as measured
        assert 300 * MB < asymptote < 425 * MB


class TestFig5:
    def test_all_approaches_present_unbatched(self):
        rows = fig5_rows(batching=False, cores=(512, 1024))
        assert len(rows) == 2
        assert set(rows[0].speedups) == APPROACH_NAMES

    def test_speedups_grow_with_cores(self):
        rows = fig5_rows(batching=True, cores=(512, 1024, 2048, 4096))
        for name in rows[0].speedups:
            series = [r.speedups[name] for r in rows]
            assert series == sorted(series)

    def test_left_panel_shape(self):
        """Batching disabled: every curve rises over the paper's whole
        axis, and flat original ends lowest."""
        rows = fig5_rows(batching=False)
        assert [r.n_cores for r in rows] == list(FIG5_CORES)
        for name in APPROACH_NAMES:
            series = [r.speedups[name] for r in rows]
            assert series == sorted(series)
        final = rows[-1].speedups
        assert min(final, key=final.get) == "flat-original"

    def test_batch_8_leaders_reach_paper_magnitude(self):
        """Paper: roughly 2000+ at 4096 cores for the two leaders."""
        final = fig5_rows(batching=True)[-1].speedups
        assert final["flat-optimized"] > 1500
        assert final["hybrid-multiple"] > 1500

    def test_batching_gain_larger_for_hybrid(self):
        """Section VII: 'the advantage of batching is greater in Hybrid
        multiple than in Flat optimized'."""
        left = fig5_rows(batching=False)[-1].speedups
        right = fig5_rows(batching=True)[-1].speedups
        gain = {n: right[n] / left[n] for n in ("flat-optimized", "hybrid-multiple")}
        assert gain["hybrid-multiple"] > gain["flat-optimized"] > 1.0

    def test_batched_top_two_are_optimized_and_hybrid(self):
        rows = fig5_rows(batching=True, cores=(4096,))
        s = rows[0].speedups
        top_two = sorted(s, key=s.get, reverse=True)[:2]
        assert set(top_two) == {"flat-optimized", "hybrid-multiple"}

    def test_original_is_last_at_scale(self):
        rows = fig5_rows(batching=True, cores=(4096,))
        s = rows[0].speedups
        assert min(s, key=s.get) == "flat-original"

    def test_callers_get_their_own_rows(self):
        """The sweep is computed once per process; a caller mutating its
        rows must not change what the next caller sees."""
        mine = fig5_rows(batching=False)
        mine[0].speedups.clear()
        mine.clear()
        assert fig5_rows(batching=False)[0].speedups

    def test_sequential_point_near_one(self):
        rows = fig5_rows(batching=False, cores=(1,))
        for v in rows[0].speedups.values():
            assert v == pytest.approx(1.0, rel=0.15)


def fig6_from_512():
    """The Fig 6 points the paper's claims are about (512..16384 cores)."""
    return [r for r in fig6_rows() if r.n_cores >= 512]


class TestFig6:
    def test_comm_curves_ratio(self):
        (r,) = [r for r in fig6_rows() if r.n_cores == 4096]
        assert r.flat_comm_mb / r.hybrid_comm_mb == pytest.approx(4 ** (1 / 3), rel=0.15)
        # flat divides each grid four times more than hybrid, at every point
        for r in fig6_from_512():
            assert r.flat_comm_mb / r.hybrid_comm_mb == pytest.approx(
                4 ** (1 / 3), rel=0.20
            )

    def test_hybrid_wins_from_512(self):
        for r in fig6_from_512():
            assert r.times["hybrid-multiple"] < r.times["flat-optimized"]
            assert r.times["hybrid-multiple"] < r.times["flat-original"]

    def test_original_time_rises(self):
        rows = fig6_from_512()
        times = [r.times["flat-original"] for r in rows]
        assert times == sorted(times)
        # the original is always the slowest and rises fastest
        for r in rows:
            assert max(r.times, key=r.times.get) == "flat-original"
        hyb = [r.times["hybrid-multiple"] for r in rows]
        assert times[-1] / times[0] > hyb[-1] / hyb[0]

    def test_comm_per_node_grows_to_hundreds_of_mb(self):
        """The right axis rises with scale and reaches hundreds of MB per
        node at 16k cores."""
        rows = fig6_from_512()
        for curve in ("flat_comm_mb", "hybrid_comm_mb"):
            series = [getattr(r, curve) for r in rows]
            assert series == sorted(series)
            assert 100 < series[-1] < 1000


class TestFig7:
    def test_reference_point_is_one(self):
        rows = fig7_rows()
        assert (rows[0].n_cores, rows[-1].n_cores) == (1024, 16384)
        assert rows[0].speedups["flat-original"] == pytest.approx(1.0)

    def test_hybrid_reaches_about_16_5(self):
        rows = fig7_rows()
        assert rows[-1].speedups["hybrid-multiple"] == pytest.approx(16.5, rel=0.15)

    def test_original_reaches_about_8_5(self):
        rows = fig7_rows()
        assert rows[-1].speedups["flat-original"] == pytest.approx(8.5, rel=0.15)

    def test_paper_legend_order_at_16k(self):
        rows = fig7_rows()
        s = rows[-1].speedups
        assert (
            s["hybrid-multiple"]
            > s["flat-optimized"]
            > s["hybrid-master-only"]
            > s["flat-original"]
        )

    def test_every_curve_rises(self):
        rows = fig7_rows()
        for name in APPROACH_NAMES:
            series = [r.speedups[name] for r in rows]
            assert series == sorted(series)


class TestHeadline:
    def test_numbers_near_paper(self):
        h = headline_numbers()
        assert h.speedup_vs_original == pytest.approx(1.94, rel=0.15)
        assert h.utilization_original == pytest.approx(0.36, abs=0.08)
        assert h.utilization_hybrid == pytest.approx(0.70, abs=0.10)
        assert 1.02 < h.hybrid_vs_flat_optimized < 1.3

    def test_utilization_ratio_tells_the_speedup_story(self):
        h = headline_numbers()
        assert h.utilization_hybrid / h.utilization_original == pytest.approx(
            h.speedup_vs_original, rel=0.05
        )


class TestAblation:
    def test_subgroups_identical_to_hybrid(self):
        """Section VII-A: 'its performance is identical with the Hybrid
        multiple' — decomposition level is the sole cause."""
        subgroup, hybrid = ablation_subgroups()
        assert subgroup.total == pytest.approx(hybrid.total, rel=0.05)
        assert subgroup.comm_bytes_per_node == pytest.approx(
            hybrid.comm_bytes_per_node
        )

    def test_decomposition_level_is_sole_cause(self):
        """Plain flat optimized differs from the sub-group variant only
        through its 4x-finer decomposition: more surface, more traffic,
        the same useful work per core."""
        subgroup, _ = ablation_subgroups()
        flat = PerformanceModel().best_batch_size(FIG7_JOB, FLAT_OPTIMIZED, 16384)
        assert flat.total > subgroup.total
        assert flat.comm_bytes_per_node > subgroup.comm_bytes_per_node
        assert flat.compute_ideal == pytest.approx(subgroup.compute_ideal)


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
