"""Model-conformance drift detection: clean runs conform, injected
faults raise typed findings, and the obs metrics land in the registry.
"""

import pytest

from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec
from repro.core.simrun import simulate_spec
from repro.obs import (
    CommDrift,
    LoadImbalance,
    StragglerRank,
    check_conformance,
)
from repro.obs.spans import SpanTracer


def _spec(approach="hybrid-multiple", n_cores=8, n_grids=4,
          shape=(16, 16, 16), batch_size=2):
    return JobSpec(
        problem=ProblemSpec(shape=shape, n_grids=n_grids),
        layout=LayoutSpec(approach=approach, n_cores=n_cores,
                          batch_size=batch_size),
    )


def _sim_trace(spec, fault_plan=None):
    tracer = SpanTracer(plane="sim")
    simulate_spec(spec, fault_plan=fault_plan, step_tracer=tracer)
    return tracer


class TestFaultFreeConformance:
    @pytest.mark.parametrize(
        "approach,n_cores,n_grids,shape,batch",
        [
            ("hybrid-multiple", 8, 4, (16, 16, 16), 2),
            ("flat-optimized", 8, 8, (24, 24, 24), 2),
            ("flat-optimized", 4, 4, (16, 16, 16), 1),
        ],
    )
    def test_clean_des_run_conforms(
        self, approach, n_cores, n_grids, shape, batch
    ):
        spec = _spec(approach, n_cores, n_grids, shape, batch)
        report = check_conformance(_sim_trace(spec), spec)
        assert not report.findings, [f.detail for f in report.findings]
        assert report.drift < 0.1
        assert report.score > 0.9
        assert report.critpath is not None

    def test_report_carries_residuals_and_hash(self):
        spec = _spec()
        report = check_conformance(_sim_trace(spec), spec)
        assert report.config_hash == spec.config_hash()
        assert "ComputeInterior" in report.residuals
        meas, mod = report.residuals["ComputeInterior"]
        assert meas > 0 and mod > 0
        text = report.format()
        assert "conformance: score" in text
        assert "no findings" in text


class TestFindings:
    def test_injected_delay_flags_the_straggler(self):
        from repro.transport import FaultPlan

        spec = _spec(approach="flat-optimized", n_cores=4)
        tracer = _sim_trace(
            spec,
            fault_plan=FaultPlan(
                seed=0, inject={(2, 0): "delay"}, delay=0.05
            ),
        )
        report = check_conformance(tracer, spec)
        stragglers = [
            f for f in report.findings if isinstance(f, StragglerRank)
        ]
        assert len(stragglers) == 1
        assert stragglers[0].rank == 2
        assert stragglers[0].blocked_seconds > 0.01
        # the 0.05 s stall also blows up exposed comm vs the model
        assert any(isinstance(f, CommDrift) for f in report.findings)
        assert report.findings

    def test_finding_kinds_are_class_names(self):
        f = StragglerRank(severity=1.0, detail="x", rank=3,
                          blocked_seconds=1.0)
        assert f.kind == "StragglerRank"
        assert CommDrift(severity=0.5, detail="y").kind == "CommDrift"
        assert LoadImbalance(severity=0.3, detail="z").kind == "LoadImbalance"
