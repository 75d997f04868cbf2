"""DES activity tracing on the one span schema, and its replay wiring."""

import pytest

from repro.core import FDJob, FLAT_ORIGINAL, FLAT_OPTIMIZED, simulate_fd
from repro.core.simrun import _replay_messages
from repro.grid import GridDescriptor
from repro.machine import Machine
from repro.obs.export import ascii_gantt
from repro.obs.spans import SpanTracer


class TestTracer:
    def test_record_and_query(self):
        tr = SpanTracer()
        tr.record("core0", 0.0, 1.0, "compute")
        tr.record("core1", 0.5, 2.0)
        assert len(tr) == 2
        assert len(tr.spans("core0")) == 1
        assert tr.resources() == ["core0", "core1"]

    def test_busy_time_merges_overlaps(self):
        tr = SpanTracer()
        tr.record("r", 0.0, 2.0)
        tr.record("r", 1.0, 3.0)  # overlapping
        tr.record("r", 5.0, 6.0)
        assert tr.busy_time("r") == pytest.approx(4.0)

    def test_busy_time_contained_span(self):
        tr = SpanTracer()
        tr.record("r", 0.0, 10.0)
        tr.record("r", 2.0, 3.0)  # fully contained
        assert tr.busy_time("r") == pytest.approx(10.0)

    def test_makespan_and_utilization(self):
        tr = SpanTracer()
        tr.record("r", 0.0, 2.0)
        tr.record("other", 0.0, 4.0)
        assert tr.makespan() == 4.0
        assert tr.busy_time("r") / tr.makespan() == pytest.approx(0.5)

    def test_empty(self):
        tr = SpanTracer()
        assert tr.makespan() == 0.0
        assert tr.busy_time("r") == 0.0
        assert ascii_gantt(tr) == "(empty trace)"

    def test_gantt_renders_rows(self):
        tr = SpanTracer()
        tr.record("alpha", 0.0, 1.0)
        tr.record("beta", 1.0, 2.0)
        text = ascii_gantt(tr, width=20)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "alpha" in lines[0] and "#" in lines[0]
        assert "beta" in lines[1]


class TestMachineTracing:
    def test_compute_records_span(self):
        r = simulate_fd(FDJob(GridDescriptor((16, 16, 16)), 1), FLAT_ORIGINAL,
                        1, trace=True)
        (span,) = r.trace.spans("node0.core0")
        assert span.duration == pytest.approx(r.total)
        assert (span.step_kind, span.plane) == ("compute", "sim")

    def test_transfer_records_link_span(self):
        r = simulate_fd(FDJob(GridDescriptor((16, 16, 16)), 1), FLAT_ORIGINAL,
                        8, trace=True)
        tr = r.trace
        link_spans = [s for r in tr.resources() if r.startswith("link")
                      for s in tr.spans(r)]
        assert link_spans
        for span in link_spans:
            src, _, dst = span.step_kind.partition("->")
            assert src.isdigit() and dst.isdigit() and src != dst
            assert span.category == "other"

    def test_no_tracer_no_overhead(self):
        eng = _replay_messages(Machine(2), [(0, 1, 0, 1000)])
        assert eng.tracer is None and eng.trace_buf is None


class TestSimrunTracing:
    def test_trace_off_by_default(self):
        job = FDJob(GridDescriptor((16, 16, 16)), 2)
        r = simulate_fd(job, FLAT_OPTIMIZED, 8)
        assert r.trace is None

    def test_trace_captures_all_cores(self):
        job = FDJob(GridDescriptor((16, 16, 16)), 2)
        r = simulate_fd(job, FLAT_OPTIMIZED, 8, trace=True)
        assert isinstance(r.trace, SpanTracer) and r.trace.plane == "sim"
        assert {s.plane for s in r.trace.spans()} == {"sim"}
        cores = [x for x in r.trace.resources() if ".core" in x]
        assert len(cores) == 8  # 2 nodes x 4 cores in VN mode

    def test_trace_shows_overlap_for_optimized(self):
        """Double buffering: some link span must overlap a core span."""
        job = FDJob(GridDescriptor((24, 24, 24)), 8)
        r = simulate_fd(job, FLAT_OPTIMIZED, 8, batch_size=2, trace=True)
        core_spans = [s for res in r.trace.resources() if ".core" in res
                      for s in r.trace.spans(res)]
        link_spans = [s for res in r.trace.resources() if res.startswith("link")
                      for s in r.trace.spans(res)]
        assert any(
            ls.start < cs.end and cs.start < ls.end
            for ls in link_spans
            for cs in core_spans
        )

    def test_original_serializes_comm_and_compute_per_rank(self):
        """Flat original: a core never computes while its own rank's
        message is in flight (no latency hiding)."""
        job = FDJob(GridDescriptor((16, 16, 16)), 2)
        r = simulate_fd(job, FLAT_ORIGINAL, 8, trace=True)
        # utilization of every core is clearly below 100%
        for res in r.trace.resources():
            if ".core" in res:
                assert r.trace.busy_time(res) / r.trace.makespan() < 0.95
