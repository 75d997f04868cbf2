"""Exporters: Chrome-trace round trip, Gantt, utilization, diffing.

Includes the acceptance tests for the telemetry plane: a real engine run
exports valid Chrome-trace JSON that reparses into the identical span
set, all three planes agree on the per-worker step-kind sequence of the
same compiled plan, and the model-plane trace's utilization report
reproduces the analytic :class:`FDTiming` breakdown.
"""

import json

import pytest

from repro.analysis.timeline import (
    model_step_trace,
    real_step_trace,
    sim_step_trace,
    step_trace_for,
)
from repro.core import FDJob, PerformanceModel, approach_by_name, simulate_fd
from repro.grid import GridDescriptor
from repro.obs.export import (
    ascii_gantt,
    chrome_trace,
    diff_step_kinds,
    format_diff,
    format_metrics,
    format_utilization,
    parse_chrome_trace,
    utilization_report,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer, StepSpan

CONFIG = dict(n_cores=8, n_grids=4, shape=(16, 16, 16), batch_size=2)


def _spans_sorted(tracer):
    return sorted(tracer.spans(), key=lambda s: s.sort_key)


class TestChromeTraceRoundTrip:
    def test_real_engine_run_round_trips_exactly(self):
        tracer = real_step_trace("hybrid-multiple", **CONFIG)
        assert len(tracer) > 0
        payload = json.dumps(chrome_trace(tracer))
        reparsed = parse_chrome_trace(payload)
        assert reparsed == _spans_sorted(tracer)

    def test_sim_and_model_round_trip(self):
        tracers = [
            step_trace_for(plane, "hybrid-multiple", **CONFIG)
            for plane in ("sim", "model")
        ]
        # the DES activity trace (core and link spans) is one more input
        activity = simulate_fd(
            FDJob(GridDescriptor(CONFIG["shape"]), CONFIG["n_grids"]),
            approach_by_name("hybrid-multiple"),
            CONFIG["n_cores"],
            batch_size=CONFIG["batch_size"],
            trace=True,
        ).trace
        for tracer in tracers + [activity]:
            reparsed = parse_chrome_trace(chrome_trace(tracer))
            assert reparsed == _spans_sorted(tracer)
        rep = utilization_report(activity)
        assert rep["resources"] == activity.resources()
        assert rep["makespan"] == activity.makespan()
        assert rep["step_kinds"]["compute"] > 0.0

    def test_event_structure(self):
        tracer = SpanTracer()
        tracer.add(StepSpan(resource="rank2.w1", step_kind="WaitAll",
                            start=10.0, end=10.5, seq=3, grid_ids=(0, 1)))
        data = chrome_trace(tracer)
        assert data["displayTimeUnit"] == "ms"
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == 1 and len(ms) == 2  # process + thread names
        (x,) = xs
        assert x["name"] == "WaitAll" and x["cat"] == "comm"
        assert (x["pid"], x["tid"]) == (2, 1)
        assert x["dur"] == pytest.approx(0.5e6)
        assert x["args"]["seq"] == 3

    def test_non_rank_resources_get_synthetic_pids(self):
        tracer = SpanTracer()
        tracer.record("supervisor.rank0", 0.0, 1.0, "crash")
        (x,) = [e for e in chrome_trace(tracer)["traceEvents"]
                if e["ph"] == "X"]
        assert x["pid"] >= 10_000


class TestCrossPlaneConsistency:
    @pytest.mark.parametrize(
        "name", ["flat-original", "flat-optimized", "hybrid-multiple"]
    )
    def test_real_and_sim_step_sequences_match(self, name):
        real = real_step_trace(name, **dict(CONFIG, batch_size=1))
        sim = sim_step_trace(name, **dict(CONFIG, batch_size=1))
        assert real.step_sequence() == sim.step_sequence()

    def test_batched_sequences_match(self):
        real = real_step_trace("hybrid-multiple", **CONFIG)
        sim = sim_step_trace("hybrid-multiple", **CONFIG)
        assert real.step_sequence() == sim.step_sequence()

    def test_subgroups_share_the_kind_alphabet(self):
        # flat-subgroups is the one approach whose worker *structure*
        # differs between planes: the functional engine consolidates each
        # rank into one worker, the timing planes model four sub-group
        # virtual ranks (see timing_plan).  Sequences cannot
        # match worker-for-worker, but both planes must interpret the
        # same step-kind vocabulary per rank.
        real = real_step_trace("flat-subgroups", **CONFIG)
        sim = sim_step_trace("flat-subgroups", **CONFIG)
        assert set(real.step_kinds()) == set(sim.step_kinds())

    def test_master_only_sequences_match(self):
        real = real_step_trace("hybrid-master-only", n_cores=8, n_grids=4,
                               shape=(16, 16, 16))
        sim = sim_step_trace("hybrid-master-only", n_cores=8, n_grids=4,
                             shape=(16, 16, 16))
        assert real.step_sequence() == sim.step_sequence()

    def test_model_sequence_is_subset_of_kind_alphabet(self):
        # the model reconstructs one representative worker, so it cannot
        # match span-for-span — but it must speak the same IR vocabulary
        model = model_step_trace("hybrid-multiple", **CONFIG)
        sim = sim_step_trace("hybrid-multiple", **CONFIG)
        model_kinds = set(model.step_kinds())
        sim_kinds = set(sim.step_kinds())
        assert model_kinds <= sim_kinds | {"JoinBarrier", "GridBarrier"}
        assert model.resources() == ["rank0.w0"]


class TestUtilizationReport:
    def test_empty_trace(self):
        rep = utilization_report(SpanTracer())
        assert rep["makespan"] == 0.0
        assert rep["utilization"] == 0.0

    def test_single_resource_breakdown(self):
        tr = SpanTracer()
        tr.record("rank0.w0", 0.0, 6.0, "ComputeInterior")
        tr.record("rank0.w0", 6.0, 8.0, "WaitAll")
        tr.record("rank0.w0", 8.0, 10.0, "JoinBarrier")
        rep = utilization_report(tr)
        assert rep["makespan"] == pytest.approx(10.0)
        assert rep["fractions"]["compute"] == pytest.approx(0.6)
        assert rep["fractions"]["comm"] == pytest.approx(0.2)
        assert rep["fractions"]["sync"] == pytest.approx(0.2)
        assert rep["idle"] == pytest.approx(0.0)
        assert rep["utilization"] == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "name,batch", [("flat-optimized", 4), ("hybrid-multiple", 4),
                       ("hybrid-master-only", 4), ("flat-original", 1)]
    )
    def test_model_trace_report_matches_fdtiming(self, name, batch):
        """Acceptance: utilization report vs the perfmodel, same config."""
        approach = approach_by_name(name)
        pm = PerformanceModel()
        job = FDJob(GridDescriptor((64, 64, 64)), 16)
        timing = pm.evaluate(job, approach, 256, batch_size=batch)
        rep = utilization_report(
            pm.step_trace(job, approach, 256, batch_size=batch)
        )
        tol = 0.05 * timing.total
        assert rep["makespan"] == pytest.approx(timing.total, abs=tol)
        assert rep["categories"]["comm"] == pytest.approx(
            timing.comm_exposed, abs=tol
        )
        # compute spans exclude the barrier time FDTiming folds into
        # ``compute``; together with sync spans the books balance
        assert (
            rep["categories"]["compute"] + rep["categories"]["sync"]
        ) >= timing.total - timing.comm_exposed - tol

    def test_format_utilization_renders(self):
        tr = SpanTracer()
        tr.record("rank0.w0", 0.0, 1.0, "ComputeInterior")
        text = format_utilization(utilization_report(tr))
        assert "compute" in text and "utilization 100.00%" in text


class TestGantt:
    def test_normalized_gantt_for_raw_timestamps(self):
        tr = SpanTracer()
        tr.record("rank0.w0", 1000.0, 1001.0, "ComputeInterior")
        out = ascii_gantt(tr, width=20, normalize=True)
        assert "rank0.w0" in out and "#" in out

    def test_empty(self):
        assert ascii_gantt(SpanTracer()) == "(empty trace)"


class TestDiff:
    def test_diff_reports_deltas_and_ratios(self):
        a, b = SpanTracer(), SpanTracer()
        a.record("r", 0.0, 2.0, "WaitAll")
        b.record("r", 0.0, 1.0, "WaitAll")
        b.record("r", 1.0, 2.0, "PostSend")
        a.record("r", 2.0, 3.0, "JoinBarrier")
        diff = diff_step_kinds(a, b)
        assert diff["WaitAll"]["delta"] == pytest.approx(1.0)
        assert diff["WaitAll"]["ratio"] == pytest.approx(2.0)
        assert diff["PostSend"]["ratio"] == 0.0  # absent from a
        assert diff["JoinBarrier"]["ratio"] is None  # absent from b
        text = format_diff(diff, "real", "sim")
        assert "real" in text and "WaitAll" in text

    def test_real_vs_sim_diff_covers_all_kinds(self):
        real = real_step_trace("hybrid-multiple", **CONFIG)
        sim = sim_step_trace("hybrid-multiple", **CONFIG)
        diff = diff_step_kinds(real, sim)
        assert set(diff) == set(real.step_kinds()) | set(sim.step_kinds())


class TestFormatMetrics:
    def test_renders_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("msgs", rank=0).inc(3)
        reg.gauge("residual").set(0.5)
        reg.histogram("lat").observe(0.01)
        text = format_metrics(reg)
        assert "msgs{rank=0}" in text
        assert "residual" in text
        assert "count=1" in text

    def test_empty_registry(self):
        assert format_metrics(MetricsRegistry()) == "(no instruments)"


class TestParseErrorPaths:
    """Malformed payloads fail loudly with typed exceptions, never
    silently return a partial span set."""

    def test_malformed_json_string(self):
        with pytest.raises(json.JSONDecodeError):
            parse_chrome_trace('{"traceEvents": [truncated')

    def test_dict_missing_trace_events(self):
        with pytest.raises(KeyError):
            parse_chrome_trace({"displayTimeUnit": "ms"})

    def test_x_event_missing_args(self):
        with pytest.raises(KeyError):
            parse_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "WaitAll"}]}
            )

    def test_x_event_args_missing_required_keys(self):
        # args present but truncated: no exact start/end floats
        event = {
            "ph": "X",
            "name": "WaitAll",
            "args": {"resource": "rank0.w0"},
        }
        with pytest.raises(KeyError):
            parse_chrome_trace({"traceEvents": [event]})

    def test_metadata_only_payload_is_empty_not_an_error(self):
        events = [{"ph": "M", "name": "process_name", "args": {"name": "r"}}]
        assert parse_chrome_trace({"traceEvents": events}) == []

    def test_bare_event_list_is_accepted(self):
        tracer = SpanTracer()
        tracer.add(StepSpan(resource="rank0.w0", step_kind="WaitAll",
                            start=0.0, end=1.0))
        events = chrome_trace(tracer)["traceEvents"]
        assert parse_chrome_trace({"traceEvents": events}) == tracer.spans()


class TestGanttDeterminism:
    def test_zero_duration_tie_break_is_stable(self):
        """Spans tied on (start, end) render identically regardless of
        insertion order — sort_key breaks the tie."""
        def build(order):
            tracer = SpanTracer()
            for kind in order:
                tracer.add(StepSpan(resource="rank0.w0", step_kind=kind,
                                    start=1.0, end=1.0))
            tracer.add(StepSpan(resource="rank0.w0",
                                step_kind="ComputeInterior",
                                start=0.0, end=2.0))
            return ascii_gantt(tracer)

        a = build(["PostSend", "WaitAll", "GridBarrier"])
        b = build(["GridBarrier", "PostSend", "WaitAll"])
        assert a == b
