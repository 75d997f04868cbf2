"""Tests for the calibration fitting machinery."""

import pytest

from repro.analysis.calibration import (
    PaperAnchors,
    anchor_error,
    fit_compute_knobs,
)
from repro.core import (
    FDJob,
    FLAT_OPTIMIZED,
    FLAT_ORIGINAL,
    HYBRID_MULTIPLE,
    PerformanceModel,
)
from repro.grid import GridDescriptor
from repro.machine.spec import BGP_SPEC


class TestAnchorError:
    def test_shipped_defaults_fit_well(self):
        """The shipped calibration sits close to the paper's anchors:
        every anchor within ~12% on average (six anchors, summed squared
        relative error below 0.1)."""
        assert anchor_error(BGP_SPEC) < 0.1

    def test_bad_calibration_scores_worse(self):
        slow = BGP_SPEC.with_(stencil_point_time=400e-9)
        assert anchor_error(slow) > anchor_error(BGP_SPEC)
        hot = BGP_SPEC.with_(halo_compute_exponent=0.9)
        assert anchor_error(hot) > anchor_error(BGP_SPEC)

    def test_error_is_the_anchor_table_against_the_figures(self):
        """The functional scores the same model numbers the headline and
        Fig. 7 report, against every anchor."""
        from repro.analysis import fig7_rows, headline_numbers

        h = headline_numbers()
        fig7 = fig7_rows()[-1].speedups
        predictions = {
            "headline_speedup": h.speedup_vs_original,
            "utilization_original": h.utilization_original,
            "utilization_hybrid": h.utilization_hybrid,
            "fig7_hybrid_vs_original_1k": fig7["hybrid-multiple"],
            "fig7_original_self": fig7["flat-original"],
            "hybrid_over_optimized": h.hybrid_vs_flat_optimized,
        }
        anchors = PaperAnchors()
        assert anchor_error(BGP_SPEC) == pytest.approx(sum(
            ((value - getattr(anchors, name)) / getattr(anchors, name)) ** 2
            for name, value in predictions.items()
        ), rel=1e-12)


class TestGridSearch:
    def test_recovers_neighborhood_of_defaults(self):
        """The search's optimum lands on (or adjacent to) the shipped
        values — the calibration is reproducible from the anchors."""
        result = fit_compute_knobs()
        assert result.spec.stencil_point_time == pytest.approx(110e-9, rel=0.25)
        assert result.spec.halo_compute_exponent == pytest.approx(0.4, abs=0.1)

    def test_best_error_is_min_of_grid(self):
        result = fit_compute_knobs()
        assert result.error == pytest.approx(min(e for _, _, e in result.grid))
        assert len(result.grid) == 25

    def test_conclusions_hold_across_the_grid(self):
        """The qualitative verdicts (hybrid wins; original trails
        optimized) do not hinge on the exact values of the two knobs."""
        job = FDJob(GridDescriptor((192, 192, 192)), 2816)
        for t in (90e-9, 110e-9, 130e-9):
            for e in (0.2, 0.3, 0.4):
                pm = PerformanceModel(
                    BGP_SPEC.with_(stencil_point_time=t, halo_compute_exponent=e)
                )
                hm = pm.best_batch_size(job, HYBRID_MULTIPLE, 16384).total
                opt = pm.best_batch_size(job, FLAT_OPTIMIZED, 16384).total
                orig = pm.evaluate(job, FLAT_ORIGINAL, 16384).total
                assert orig / hm > 1.3
                assert opt / hm > 1.0
                assert orig / hm > opt / hm

    def test_default_beats_grid_corners(self):
        """No corner of a wide grid beats the shipped point by much."""
        shipped = anchor_error(BGP_SPEC)
        for t in (80e-9, 140e-9):
            for e in (0.15, 0.45):
                corner = BGP_SPEC.with_(
                    stencil_point_time=t, halo_compute_exponent=e
                )
                assert anchor_error(corner) > shipped * 0.5
