"""Tests for the analytic performance model: invariants + paper anchors."""

import pytest

from repro.core import (
    ALL_APPROACHES,
    FDJob,
    FLAT_OPTIMIZED,
    FLAT_ORIGINAL,
    HYBRID_MASTER_ONLY,
    HYBRID_MULTIPLE,
    PerformanceModel,
)
from repro.analysis import fig6_rows
from repro.core.perfmodel import _pipeline_time
from repro.core.schedule import timing_plan
from repro.grid import GridDescriptor
from repro.machine.spec import BGP_SPEC


@pytest.fixture(scope="module")
def pm():
    return PerformanceModel()


@pytest.fixture(scope="module")
def fig5_job():
    return FDJob(GridDescriptor((144, 144, 144)), 32)


@pytest.fixture(scope="module")
def fig7_job():
    return FDJob(GridDescriptor((192, 192, 192)), 2816)


class TestPipelineTime:
    def test_single_round(self):
        assert _pipeline_time([2.0], [3.0]) == pytest.approx(5.0)

    def test_comm_hidden_when_compute_dominates(self):
        # 3 rounds, comm 1 each, comp 5 each: 1 + max(5,1) + max(5,1) + 5
        assert _pipeline_time([1, 1, 1], [5, 5, 5]) == pytest.approx(16.0)

    def test_compute_hidden_when_comm_dominates(self):
        assert _pipeline_time([5, 5, 5], [1, 1, 1]) == pytest.approx(16.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            _pipeline_time([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            _pipeline_time([], [])


class TestBasicInvariants:
    def test_sequential_time_positive_and_linear_in_grids(self, pm):
        j1 = FDJob(GridDescriptor((64, 64, 64)), 10)
        j2 = FDJob(GridDescriptor((64, 64, 64)), 20)
        assert pm.sequential_time(j2) == pytest.approx(2 * pm.sequential_time(j1))

    @pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.name)
    def test_total_at_least_compute(self, pm, fig5_job, approach):
        t = pm.evaluate(fig5_job, approach, 512)
        assert t.total >= t.compute > 0

    @pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.name)
    def test_more_cores_is_faster(self, pm, fig7_job, approach):
        times = [pm.evaluate(fig7_job, approach, p).total for p in (512, 1024, 2048, 4096)]
        assert times == sorted(times, reverse=True)

    @pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.name)
    def test_utilization_in_unit_interval(self, pm, fig7_job, approach):
        for p in (64, 1024, 16384):
            u = pm.evaluate(fig7_job, approach, p).utilization
            assert 0.0 < u <= 1.0

    def test_utilization_degrades_with_scale(self, pm, fig7_job):
        us = [pm.evaluate(fig7_job, FLAT_ORIGINAL, p).utilization for p in (1024, 4096, 16384)]
        assert us == sorted(us, reverse=True)

    def test_batching_invalid_for_original(self, pm, fig5_job):
        with pytest.raises(ValueError):
            pm.evaluate(fig5_job, FLAT_ORIGINAL, 512, batch_size=8)

    def test_invalid_args(self, pm, fig5_job):
        with pytest.raises(ValueError):
            pm.evaluate(fig5_job, FLAT_OPTIMIZED, 0)
        with pytest.raises(ValueError):
            pm.evaluate(fig5_job, FLAT_OPTIMIZED, 512, batch_size=0)

    def test_comm_bytes_per_node_ratio_is_cube_root_of_four(self, pm, fig7_job):
        """Fig 6: flat divides 4x more => ~4^(1/3) more comm per node."""
        flat = pm.evaluate(fig7_job, FLAT_OPTIMIZED, 4096).comm_bytes_per_node
        hyb = pm.evaluate(fig7_job, HYBRID_MULTIPLE, 4096).comm_bytes_per_node
        assert flat / hyb == pytest.approx(4 ** (1 / 3), rel=0.15)

    def test_message_bytes_shrink_with_cores(self, pm, fig7_job):
        sizes = [
            pm.evaluate(fig7_job, FLAT_OPTIMIZED, p).message_bytes
            for p in (512, 4096, 16384)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestBatching:
    def test_batching_helps_at_scale(self, pm, fig5_job):
        """Deep decompositions send tiny messages; batching amortizes
        latency (the Fig 5 right-vs-left difference)."""
        plain = pm.evaluate(fig5_job, FLAT_OPTIMIZED, 4096, batch_size=1)
        batched = pm.evaluate(fig5_job, FLAT_OPTIMIZED, 4096, batch_size=8)
        assert batched.total < plain.total

    def test_batching_advantage_greater_for_hybrid(self, pm, fig5_job):
        """Section VII: 'the advantage of batching is greater in Hybrid
        multiple than in Flat optimized'."""

        def gain(approach):
            plain = pm.evaluate(fig5_job, approach, 4096, batch_size=1)
            batched = pm.evaluate(fig5_job, approach, 4096, batch_size=8)
            return plain.total / batched.total

        assert gain(HYBRID_MULTIPLE) > gain(FLAT_OPTIMIZED)

    def test_best_batch_size_never_worse_than_unbatched(self, pm, fig7_job):
        for approach in (FLAT_OPTIMIZED, HYBRID_MULTIPLE, HYBRID_MASTER_ONLY):
            best = pm.best_batch_size(fig7_job, approach, 4096)
            plain = pm.evaluate(fig7_job, approach, 4096, batch_size=1)
            assert best.total <= plain.total + 1e-12

    def test_best_batch_for_original_is_one(self, pm, fig5_job):
        t = pm.best_batch_size(fig5_job, FLAT_ORIGINAL, 512)
        assert t.batch_size == 1

    def test_batch_size_sweep_has_interior_optimum(self, pm, fig7_job):
        """At 16k cores, latency-bound small batches and a prologue-bound
        single giant batch bracket the optimum best_batch_size finds."""
        times = {
            b: pm.evaluate(fig7_job, HYBRID_MULTIPLE, 16384, batch_size=b).total
            for b in (1, 2, 4, 8, 16, 32, 64, 128, 256, 704)
        }
        best = min(times, key=times.get)
        assert times[1] > times[best]
        assert times[704] >= times[best]
        assert 2 <= best <= 256
        picked = pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, 16384)
        assert picked.total == pytest.approx(times[best], rel=1e-6)

    def test_ramp_up_shortens_prologue(self, pm):
        """With comm-bound rounds, halving the first batch helps."""
        job = FDJob(GridDescriptor((144, 144, 144)), 256)
        plain = pm.evaluate(job, FLAT_OPTIMIZED, 4096, batch_size=128)
        ramped = pm.evaluate(job, FLAT_OPTIMIZED, 4096, batch_size=128, ramp_up=True)
        assert ramped.total <= plain.total

    def test_messages_per_rank_drop_with_batching(self, fig5_job):
        def plan(batch_size):
            return timing_plan(
                FLAT_OPTIMIZED, fig5_job.grid, fig5_job.n_grids, 512, batch_size
            )

        plain, batched = plan(1), plan(8)
        for domain in (0, plain.decomp.n_domains - 1):
            assert plain.message_count(domain) > 0
            assert plain.message_count(domain) == 8 * batched.message_count(domain)


class TestPaperAnchors:
    """The quantitative shape criteria from DESIGN.md section 4."""

    def test_headline_1_94x_at_16384_cores(self, pm, fig7_job):
        orig = pm.evaluate(fig7_job, FLAT_ORIGINAL, 16384)
        hm = pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, 16384)
        assert orig.total / hm.total == pytest.approx(1.94, rel=0.15)

    def test_utilization_36_to_70(self, pm, fig7_job):
        orig = pm.evaluate(fig7_job, FLAT_ORIGINAL, 16384)
        hm = pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, 16384)
        assert orig.utilization == pytest.approx(0.36, abs=0.08)
        assert hm.utilization == pytest.approx(0.70, abs=0.10)

    def test_hybrid_10_percent_over_flat_optimized(self, pm, fig7_job):
        opt = pm.best_batch_size(fig7_job, FLAT_OPTIMIZED, 16384)
        hm = pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, 16384)
        assert 1.02 < opt.total / hm.total < 1.30

    def test_fig7_speedup_about_16_5(self, pm, fig7_job):
        base = pm.evaluate(fig7_job, FLAT_ORIGINAL, 1024).total
        hm = pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, 16384).total
        assert base / hm == pytest.approx(16.5, rel=0.15)

    def test_fig7_hybrid_self_speedup_about_12(self, pm, fig7_job):
        t1k = pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, 1024).total
        t16k = pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, 16384).total
        assert 10 <= t1k / t16k <= 15  # paper: ~12, linear would be 16

    def test_fig7_original_speedup_about_8_5(self, pm, fig7_job):
        t1k = pm.evaluate(fig7_job, FLAT_ORIGINAL, 1024).total
        t16k = pm.evaluate(fig7_job, FLAT_ORIGINAL, 16384).total
        assert t1k / t16k == pytest.approx(8.5, rel=0.15)

    def test_approach_order_at_16k(self, pm, fig7_job):
        """Fig 7 top-to-bottom: hybrid multiple, flat optimized,
        hybrid master-only, flat original."""
        ts = {
            a.name: (
                pm.best_batch_size(fig7_job, a, 16384)
                if a.supports_batching
                else pm.evaluate(fig7_job, a, 16384)
            ).total
            for a in ALL_APPROACHES
        }
        order = sorted(ts, key=ts.get)  # fastest first
        assert order == [
            "hybrid-multiple",
            "flat-optimized",
            "hybrid-master-only",
            "flat-original",
        ]

    def test_fig5_best_approaches_with_batching(self, pm, fig5_job):
        """Fig 5: flat optimized and hybrid multiple (batch 8) are on top."""
        ts = {
            a.name: pm.evaluate(
                fig5_job, a, 4096, batch_size=8 if a.supports_batching else 1
            ).total
            for a in ALL_APPROACHES
        }
        best_two = set(sorted(ts, key=ts.get)[:2])
        assert best_two == {"flat-optimized", "hybrid-multiple"}
        assert max(ts, key=ts.get) == "flat-original"

    def test_fig6_hybrid_overtakes_flat_by_512_cores(self):
        """Gustafson job: hybrid multiple faster than flat optimized at 512+."""
        rows = {r.n_cores: r.times for r in fig6_rows()}
        for p in (512, 2048, 16384):
            assert rows[p][HYBRID_MULTIPLE.name] < rows[p][FLAT_OPTIMIZED.name]

    def test_fig6_original_time_grows_with_scale(self):
        """The Gustafson curve of the original implementation rises."""
        rows = {r.n_cores: r.times for r in fig6_rows()}
        times = [rows[p][FLAT_ORIGINAL.name] for p in (1024, 4096, 16384)]
        assert times == sorted(times)

    def test_master_only_cannot_compete(self, pm, fig7_job):
        """Section VIII: master-only loses to the non-hybrid optimized
        version; its per-grid synchronization grows with the grid count."""
        for p in (4096, 16384):
            hmo = pm.best_batch_size(fig7_job, HYBRID_MASTER_ONLY, p)
            opt = pm.best_batch_size(fig7_job, FLAT_OPTIMIZED, p)
            assert hmo.total > opt.total
            assert hmo.sync > pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, p).sync


class TestSubgroupAblation:
    """Section VII-A: flat optimized with node-level decomposition (static
    sub-groups) must behave like hybrid multiple — the decomposition level
    is the sole cause of the difference."""

    def test_subgroup_variant_matches_hybrid_comm(self, pm, fig7_job):
        hm = pm.best_batch_size(fig7_job, HYBRID_MULTIPLE, 16384)
        opt = pm.best_batch_size(fig7_job, FLAT_OPTIMIZED, 16384)
        # the hybrid advantage is entirely in comm volume, not compute rate
        assert hm.comm_bytes_per_node < opt.comm_bytes_per_node
        assert hm.compute_ideal == pytest.approx(opt.compute_ideal)
