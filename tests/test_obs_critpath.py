"""Critical-path attribution: exact bucket partition, DES-vs-model
agreement, straggler identification.

The acceptance tests for the attribution layer: blame buckets sum to the
wall time *exactly* on every plane's trace, the DES critical-path length
matches the analytic model's iteration time within 5% for the same
JobSpec, and an injected delay fault is attributed to the injected rank.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.timeline import step_trace
from repro.core.approaches import ALL_APPROACHES
from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
from repro.core.schedule import RING_DIM
from repro.obs.critpath import (
    BLAME_BUCKETS,
    blame_bucket,
    critical_path,
    owner_of_resource,
    plan_for_spec,
)
from repro.obs.spans import SpanTracer, StepSpan

def _spec(approach="hybrid-multiple", n_cores=8, n_grids=4,
          shape=(16, 16, 16), batch_size=2):
    return JobSpec(
        problem=ProblemSpec(shape=shape, n_grids=n_grids),
        layout=LayoutSpec(approach=approach, n_cores=n_cores,
                          batch_size=batch_size),
    )


@st.composite
def _random_specs(draw):
    """A small spec over the paper's approaches, core counts, batches and
    placements."""
    approach = draw(st.sampled_from(ALL_APPROACHES))
    n_grids = draw(st.integers(1, 6))
    batch = (
        draw(st.integers(1, n_grids)) if approach.supports_batching else 1
    )
    return JobSpec(
        problem=ProblemSpec(shape=(16, 16, 16), n_grids=n_grids),
        layout=LayoutSpec(
            approach=approach.name,
            n_cores=draw(st.sampled_from([1, 2, 4, 8, 16])),
            batch_size=batch,
            ramp_up=draw(st.booleans()),
        ),
        runtime=RuntimeSpec(
            placement=draw(st.sampled_from(["auto", "cyclic", "spread"]))
        ),
    )


class TestBlameBuckets:
    def test_known_kinds_map(self):
        assert blame_bucket("ComputeInterior") == "interior_compute"
        assert blame_bucket("PartialGemm") == "interior_compute"
        assert blame_bucket("ComputeBoundary") == "boundary_compute"
        assert blame_bucket("ApplyLocalWraps") == "boundary_compute"
        for kind in ("PostSend", "PostRecv", "WaitAll"):
            assert blame_bucket(kind) == "exposed_comm"
        assert blame_bucket("GridBarrier") == "barrier_skew"
        assert blame_bucket("JoinBarrier") == "barrier_skew"
        assert blame_bucket("whatever") == "other"

    def test_owner_parsing(self):
        assert owner_of_resource("rank3.w1") == 3
        assert owner_of_resource("bg1.rank0.w0") == 1
        assert owner_of_resource("link.xp") is None


class TestExactPartition:
    """sum(buckets) == wall time, bit-exactly, on every plane."""

    @pytest.mark.parametrize("plane", ["sim", "model"])
    @pytest.mark.parametrize(
        "name", ["flat-optimized", "hybrid-multiple", "hybrid-master-only"]
    )
    def test_buckets_partition_makespan_exactly(self, plane, name):
        tracer = step_trace(_spec(name), plane)
        result = critical_path(tracer)
        assert sum(result.buckets.values()) == result.wall_time
        assert result.wall_time == tracer.makespan()
        assert set(result.buckets) == set(BLAME_BUCKETS)

    @settings(max_examples=25, deadline=None)
    @given(spec=_random_specs())
    # a model trace whose float fold used to round one ulp off the wall
    @example(spec=_spec("flat-original", n_cores=4, n_grids=3, batch_size=1))
    def test_property_buckets_partition_makespan(self, spec):
        plan = plan_for_spec(spec)
        for plane in ("sim", "model"):
            tracer = step_trace(spec, plane)
            result = critical_path(tracer, plan=plan)
            assert sum(result.buckets.values()) == tracer.makespan()

    def test_partition_with_plan(self):
        spec = _spec()
        result = critical_path(
            step_trace(spec, "sim"), plan=plan_for_spec(spec)
        )
        assert sum(result.buckets.values()) == result.wall_time

    def test_by_rank_partitions_path_time(self):
        tracer = step_trace(_spec(), "sim")
        result = critical_path(tracer)
        assert sum(result.by_rank.values()) == pytest.approx(
            result.wall_time, rel=1e-12
        )

    def test_empty_trace(self):
        result = critical_path([])
        assert result.wall_time == 0.0
        assert result.straggler is None
        assert result.path == []


class TestModelAgreement:
    """The DES critical-path length matches the analytic model <= 5%."""

    @pytest.mark.parametrize(
        "name,n_cores,n_grids,shape",
        [
            ("hybrid-multiple", 8, 4, (16, 16, 16)),
            ("flat-optimized", 8, 8, (24, 24, 24)),
        ],
    )
    def test_des_critpath_matches_model_total(
        self, name, n_cores, n_grids, shape
    ):
        from repro.core import PerformanceModel

        spec = _spec(name, n_cores, n_grids, shape)
        result = critical_path(step_trace(spec, "sim"))
        timing = PerformanceModel().evaluate(
            spec.group_job(), spec.approach_obj(), n_cores, batch_size=2
        )
        assert result.wall_time == pytest.approx(timing.total, rel=0.05)

    def test_model_trace_critpath_is_its_own_makespan(self):
        """Single-resource model trace: the path is the whole walk."""
        tracer = step_trace(_spec(), "model")
        result = critical_path(tracer)
        assert result.wall_time == tracer.makespan()
        # single resource -> no cross-rank blocking at all
        assert result.imbalance_by_rank == {}


class TestStraggler:
    """An injected delay fault is charged to the injected rank."""

    def _delayed_trace(self, victim, delay=0.05):
        from repro.core.simrun import simulate_spec
        from repro.transport import FaultPlan

        spec = _spec(approach="flat-optimized", n_cores=4)
        tracer = SpanTracer(plane="sim")
        simulate_spec(
            spec,
            fault_plan=FaultPlan(
                seed=0, inject={(victim, 0): "delay"}, delay=delay
            ),
            step_tracer=tracer,
        )
        return tracer, spec

    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_straggler_is_the_injected_rank(self, victim):
        tracer, spec = self._delayed_trace(victim)
        result = critical_path(tracer, plan=plan_for_spec(spec))
        assert result.straggler == victim
        assert result.imbalance_by_rank[victim] > 0.01

    def test_straggler_found_without_plan(self):
        tracer, _spec_ = self._delayed_trace(2)
        result = critical_path(tracer)
        assert result.straggler == 2

    def test_fault_free_run_has_no_straggler(self):
        from repro.core.simrun import simulate_spec

        spec = _spec(approach="flat-optimized", n_cores=4)
        tracer = SpanTracer(plane="sim")
        simulate_spec(spec, step_tracer=tracer)
        result = critical_path(tracer, plan=plan_for_spec(spec))
        assert result.straggler is None
        assert all(v == 0.0 for v in result.imbalance_by_rank.values())


class TestResultSurface:
    def test_format_and_summary(self):
        tracer = step_trace(_spec(), "sim")
        result = critical_path(tracer)
        text = result.format()
        assert "critical path:" in text
        assert "interior_compute" in text
        digest = result.summary()
        assert digest["wall_time"] == result.wall_time
        assert digest["n_spans"] == len(tracer)
        # JSON-ready: rank keys stringified
        assert all(isinstance(k, str) for k in digest["by_rank"])

    def test_fractions_sum_to_one(self):
        tracer = step_trace(_spec("flat-optimized"), "sim")
        result = critical_path(tracer)
        total = sum(result.fraction(b) for b in BLAME_BUCKETS)
        assert total == pytest.approx(1.0, rel=1e-9)


def _assert_input_kinds_agree(tracer, plan):
    """A fresh tracer (raw records), its built span list and the same
    tracer once materialized give equal results, with and without the
    plan."""
    plans = (plan, None)
    assert any(type(e) is tuple for e in tracer.records())
    fresh = [critical_path(tracer, plan=p) for p in plans]
    spans = tracer.spans()
    assert not any(type(e) is tuple for e in tracer.records())
    for p, want in zip(plans, fresh):
        assert all(type(s) is StepSpan for s in want.path)
        assert critical_path(spans, plan=p) == want
        assert critical_path(tracer, plan=p) == want


@st.composite
def _small_specs(draw):
    """A small FD spec: any approach, up to 64 cores, periodic or open."""
    approach = draw(st.sampled_from(ALL_APPROACHES))
    n_grids = draw(st.integers(1, 4))
    batch = (
        draw(st.integers(1, n_grids)) if approach.supports_batching else 1
    )
    return JobSpec(
        problem=ProblemSpec(
            shape=(16, 16, 16),
            n_grids=n_grids,
            pbc=(draw(st.booleans()),) * 3,
        ),
        layout=LayoutSpec(
            approach=approach.name,
            n_cores=draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
            batch_size=batch,
        ),
    )


class TestInputKinds:
    """A tracer's raw records and its built spans attribute identically."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(spec=_small_specs())
    # the no-plan fallback's worst case: --durations shows it turning
    # quadratic in the core count again
    @example(spec=_spec("flat-original", n_cores=128, n_grids=8,
                        shape=(32, 32, 32), batch_size=1))
    def test_property_raw_records_match_built_spans(self, spec):
        _assert_input_kinds_agree(step_trace(spec, "sim"), plan_for_spec(spec))

    def test_band_ring_trace(self):
        from repro.core.planner import Planner
        from repro.core.simrun import simulate_band_plan

        plan = Planner().band_plan(
            ProblemSpec(shape=(32, 32, 32), n_grids=16), 64, 4
        )
        tracer = SpanTracer(plane="sim")
        simulate_band_plan(plan, step_tracer=tracer)
        assert any(type(e) is tuple and type(e[1]).__name__ == "PostSend"
                   and e[1].dim == RING_DIM for e in tracer.records())
        _assert_input_kinds_agree(tracer, plan)
