"""Flight recorder: bounded window, SCF wiring, crash-coupled dumps."""

import pytest

from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
from repro.grid import GridDescriptor
from repro.obs import FlightRecorder
from repro.obs.export import parse_chrome_trace
from repro.obs.spans import StepSpan


def _harmonic(n=6):
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=0.6)
    x, y, z = gd.coordinates()
    c = (n + 1) * 0.6 / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    return gd, v


def _records(rec):
    """The buffered iteration records, oldest first."""
    return list(rec._window)


def _span(i, kind="ComputeInterior", resource="rank0.w0"):
    return StepSpan(resource=resource, step_kind=kind,
                    start=float(i), end=float(i) + 0.5)


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_window_is_bounded(self):
        rec = FlightRecorder(capacity=3)
        for it in range(7):
            rec.tracer.add(_span(it))
            rec.mark_iteration(it)
        assert len(rec) == 3
        assert rec.dump("probe")["iterations"] == [4, 5, 6]
        # only the windowed spans remain
        assert len(rec.spans()) == 3

    def test_unrotated_spans_are_included(self):
        rec = FlightRecorder(capacity=2)
        rec.tracer.add(_span(0))
        rec.mark_iteration(0)
        rec.tracer.add(_span(1))  # not yet rotated
        assert len(rec.spans()) == 2


class TestSCFWiring:
    def test_run_rotates_every_iteration(self):
        from repro.dft import DistributedSCF

        gd, v = _harmonic()
        spec = JobSpec(
            problem=ProblemSpec.from_grid(gd, 1),
            layout=LayoutSpec(n_cores=2),
            runtime=RuntimeSpec(mixing=0.6, tolerance=0.0,
                                max_iterations=4, band_iterations=4),
        )
        rec = FlightRecorder(capacity=3)
        scf = DistributedSCF.from_spec(spec, v, occupations=[2.0])
        scf.run(flight_recorder=rec)
        # 4 iterations through a capacity-3 ring -> last three retained
        assert rec.dump("probe")["iterations"] == [2, 3, 4]
        assert all(r.spans for r in _records(rec))
        # the SCF stamped its config hash onto the recorder's tracer
        assert rec.config_hash == spec.config_hash()

    def test_recording_costs_no_operations(self):
        """Always-on recording is free on the healthy path, pinned as
        counts: the recorded run sends the bare run's messages, reaches
        the bare run's energy bit for bit, and buffers the same number
        of spans every steady-state iteration (counted on rank 0, which
        rotates the window; other ranks' spans race the rotation)."""
        from repro.dft import DistributedSCF
        from repro.transport import InprocTransport

        gd, v = _harmonic()
        spec = JobSpec(
            problem=ProblemSpec.from_grid(gd, 4),
            layout=LayoutSpec(n_cores=4, n_band_groups=2),
            runtime=RuntimeSpec(mixing=0.6, tolerance=0.0,
                                max_iterations=6, band_iterations=4),
        )

        def run(rec):
            transport = InprocTransport(4)
            scf = DistributedSCF.from_spec(spec, v, occupations=[2.0] * 4)
            res = scf.run(transport=transport, flight_recorder=rec)
            return res.total_energy, [s.messages for s in transport.stats]

        rec = FlightRecorder(capacity=4)
        assert run(rec) == run(None)
        per_iteration = {
            sum(s.resource.startswith("bg0.rank0.") for s in r.spans)
            for r in _records(rec)
        }
        assert len(per_iteration) == 1 and per_iteration.pop() > 0


class TestDump:
    def test_dump_round_trips_chrome_trace(self):
        rec = FlightRecorder(capacity=2)
        rec.config_hash = "abc123"
        for it in range(3):
            rec.tracer.add(_span(it))
            rec.mark_iteration(it)
        dump = rec.dump("test reason")
        assert dump["reason"] == "test reason"
        assert dump["config_hash"] == "abc123"
        assert dump["iterations"] == [1, 2]
        spans = parse_chrome_trace(dump["trace"])
        assert len(spans) == 2
        assert dump["critical_path"]["wall_time"] > 0

    def test_empty_dump(self):
        rec = FlightRecorder(capacity=2)
        dump = rec.dump("nothing recorded")
        assert dump["critical_path"] is None
        assert parse_chrome_trace(dump["trace"]) == []


class TestControllerCrashDump:
    def test_controller_kill_dumps_the_window(self):
        from repro.core import DegradationPolicy
        from repro.dft import (
            DistributedSCF,
            MemoryCheckpointStore,
            RecoveryController,
        )
        from repro.transport import FaultPlan, FaultyTransport, InprocTransport

        gd, v = _harmonic()
        spec = JobSpec(
            problem=ProblemSpec.from_grid(gd, 4),
            layout=LayoutSpec(n_cores=4, n_band_groups=2),
            runtime=RuntimeSpec(mixing=0.6, tolerance=0.0,
                                max_iterations=4, band_iterations=4,
                                checkpoint_every=1),
        )
        scf = DistributedSCF.from_spec(
            spec, v, occupations=[2.0] * 4,
            checkpoint_store=MemoryCheckpointStore(),
        )
        plan = FaultPlan(seed=0, kill_at={2: 400})

        def factory(attempt, n_ranks):
            inner = InprocTransport(n_ranks, default_timeout=5.0)
            return FaultyTransport(inner, plan) if attempt == 0 else inner

        rec = FlightRecorder(capacity=8)
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(max_restarts=2),
            transport_factory=factory,
            flight_recorder=rec,
        )
        res = ctrl.run()
        assert res.restarts == 1
        assert len(ctrl.flight_dumps) == 1
        dump = ctrl.flight_dumps[0]
        assert dump["crash_report"]["error_type"] == "RankKilledError"
        assert dump["crash_report"]["failed_rank"] == 2
        spans = parse_chrome_trace(dump["trace"])
        assert spans
        assert dump["critical_path"]["n_spans"] == len(spans)
