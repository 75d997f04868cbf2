"""StepSpan schema, SpanTracer recording, and the engine hook."""

import threading

import pytest

from repro.core.schedule import ApplyLocalWraps, PostSend, WaitAll
from repro.obs.export import step_kind_seconds
from repro.obs.spans import (
    COMM_STEPS,
    COMPUTE_STEPS,
    SYNC_STEPS,
    SpanTracer,
    StepSpan,
    engine_hook,
    step_category,
)
from tests.helpers import busy_time, step_sequence


class TestStepCategory:
    def test_ir_step_kinds_covered(self):
        for kind in COMM_STEPS:
            assert step_category(kind) == "comm"
        for kind in COMPUTE_STEPS:
            assert step_category(kind) == "compute"
        for kind in SYNC_STEPS:
            assert step_category(kind) == "sync"

    def test_free_labels_are_other(self):
        assert step_category("crash: RankDiedError") == "other"


class TestStepSpan:
    def test_rejects_backwards_span(self):
        with pytest.raises(ValueError):
            StepSpan(resource="r", step_kind="WaitAll", start=2.0, end=1.0)

    def test_duration_and_category(self):
        s = StepSpan(resource="r", step_kind="ComputeInterior",
                     start=1.0, end=3.5)
        assert s.duration == 2.5
        assert s.category == "compute"

    def test_equality_is_full_field(self):
        a = StepSpan(resource="r", step_kind="WaitAll", start=0.0, end=1.0,
                     seq=3)
        b = StepSpan(resource="r", step_kind="WaitAll", start=0.0, end=1.0,
                     seq=4)
        assert a != b  # non-time fields take part in equality

    def test_sort_key_breaks_timestamp_ties(self):
        a = StepSpan(resource="r", step_kind="PostRecv", start=0.0, end=0.0)
        b = StepSpan(resource="r", step_kind="PostSend", start=0.0, end=0.0)
        assert sorted([b, a], key=lambda s: s.sort_key) == [a, b]

    def test_label_mentions_grids_and_seq(self):
        s = StepSpan(resource="r", step_kind="WaitAll", start=0.0, end=1.0,
                     grid_ids=(2, 3), seq=1)
        assert s.label() == "WaitAll g2,3 seq1"


class TestSpanTracer:
    def test_record_step_extracts_ir_tags(self):
        tr = SpanTracer(plane="sim")
        tr.record_step("rank0.w0", PostSend(seq=2, dim=1, step=-1, dst=3,
                                            grid_ids=(0, 1), nbytes=64),
                       0, 1.0, 2.0)
        (s,) = tr.spans()
        assert s.step_kind == "PostSend"
        assert s.plane == "sim"
        assert s.grid_ids == (0, 1)
        assert (s.seq, s.dim, s.direction) == (2, 1, -1)

    def test_record_step_rejects_backwards(self):
        with pytest.raises(ValueError):
            SpanTracer().record_step("r", WaitAll(seq=0, grid_ids=(0,)),
                                     0, 2.0, 1.0)

    def test_grid_id_promoted_to_tuple(self):
        tr = SpanTracer()
        tr.record_step("r", ApplyLocalWraps(grid_id=5), 0, 0.0, 1.0)
        assert tr.spans()[0].grid_ids == (5,)

    def test_legacy_record_keeps_label(self):
        tr = SpanTracer()
        tr.record("r", 0.0, 1.0, "crash")
        assert tr.spans()[0].step_kind == "crash"
        tr.record("r", 1.0, 2.0)
        assert tr.spans()[1].step_kind == "span"

    def test_insertion_order_preserved_per_resource(self):
        tr = SpanTracer()
        # zero-duration steps at the same instant: sorting by time could
        # not recover this order, insertion order can
        for kind in (PostSend(seq=0, dim=0, step=1, dst=1, grid_ids=(0,),
                              nbytes=8),
                     WaitAll(seq=0, grid_ids=(0,))):
            tr.record_step("rank0.w0", kind, 0, 1.0, 1.0)
        assert step_sequence(tr)["rank0.w0"] == ["PostSend", "WaitAll"]

    def test_makespan_and_busy_time(self):
        tr = SpanTracer()
        tr.record("a", 1.0, 3.0)
        tr.record("a", 2.0, 4.0)  # overlaps: busy time merges
        tr.record("b", 5.0, 6.0)
        assert tr.makespan() == pytest.approx(5.0)
        assert busy_time(tr, "a") == pytest.approx(3.0)

    def test_step_kinds_totals(self):
        tr = SpanTracer()
        tr.record("a", 0.0, 1.0, "WaitAll")
        tr.record("b", 0.0, 2.0, "WaitAll")
        assert step_kind_seconds(tr) == {"WaitAll": 3.0}

    def test_concurrent_recording(self):
        tr = SpanTracer()
        step = ApplyLocalWraps(grid_id=0)

        def worker(rank):
            for i in range(500):
                tr.record_step(f"rank{rank}.w0", step, 0, float(i),
                               float(i) + 0.5)

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr) == 2000
        assert all(len(v) == 500 for v in step_sequence(tr).values())

    def test_len_counts_before_materialization(self):
        tr = SpanTracer()
        tr.record_step("r", ApplyLocalWraps(grid_id=0), 0, 0.0, 1.0)
        assert len(tr) == 1  # raw record counted without building spans


class TestEngineHook:
    def test_hook_names_resources_like_tracer_hook(self):
        tr = SpanTracer()
        hook = engine_hook(tr, rank=3)
        hook(ApplyLocalWraps(grid_id=0), 1, 0.0, 1.0)
        hook(ApplyLocalWraps(grid_id=1), 1, 1.0, 2.0)
        assert tr.resources() == ["rank3.w1"]
        assert all(s.worker == 1 for s in tr.spans())

    def test_one_tracer_serves_all_ranks(self):
        tr = SpanTracer()
        for rank in (0, 1):
            engine_hook(tr, rank)(ApplyLocalWraps(grid_id=0), 0, 0.0, 1.0)
        assert tr.resources() == ["rank0.w0", "rank1.w0"]
