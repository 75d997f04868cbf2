"""Bit-exactness of the compiled replay engine against the reference engine.

The compiled engine (:mod:`repro.core.simrun_compiled`) claims *hop
parity* with the generator-process reference engine: same heap entries,
same ``(time, seq)`` order, hence identical timestamps, message order
under contention, traces and event counts.  These tests run both engines
on the same configuration and demand **exact** equality — no tolerances
anywhere — on every observable: totals, utilization, byte/message
counters, fired-event counts, the full activity trace (times, resources,
labels, tie order) and the full step trace, including under a seeded
:class:`~repro.transport.faults.FaultPlan` with every fault kind armed.
"""

import pytest

from repro.core import (
    FLAT_OPTIMIZED,
    FLAT_ORIGINAL,
    HYBRID_MASTER_ONLY,
    HYBRID_MULTIPLE,
    FDJob,
    simulate_fd,
)
from repro.core.approaches import FLAT_SUBGROUPS
from repro.grid import GridDescriptor
from repro.obs.spans import SpanTracer
from repro.transport.faults import FaultPlan


def _job(shape=(24, 24, 24), n_grids=8):
    return FDJob(GridDescriptor(shape), n_grids)


def _span_rows(tracer):
    return [(s.start, s.end, s.resource, s.step_kind) for s in tracer.spans()]


def _step_rows(tracer):
    return [
        (
            s.resource, s.step_kind, s.start, s.end, s.plane, s.worker,
            s.grid_ids, s.seq, s.dim, s.direction,
        )
        for s in tracer.spans()
    ]


def _run_both(approach, n_cores, batch_size=1, ramp_up=False, shape=(24, 24, 24),
              n_grids=8, fault_plan=None, placement="auto"):
    results = []
    for engine in ("reference", "compiled"):
        results.append(
            simulate_fd(
                _job(shape, n_grids),
                approach,
                n_cores,
                batch_size=batch_size,
                ramp_up=ramp_up,
                placement=placement,
                trace=True,
                fault_plan=fault_plan.replica() if fault_plan else None,
                step_tracer=SpanTracer(plane="sim"),
                engine=engine,
            )
        )
    return results


def _assert_identical(ref, cmp):
    assert ref.engine == "reference" and cmp.engine == "compiled"
    assert cmp.total == ref.total
    assert cmp.utilization == ref.utilization
    assert cmp.comm_bytes_per_node == ref.comm_bytes_per_node
    assert cmp.messages == ref.messages
    assert cmp.fault_events == ref.fault_events
    assert cmp.events == ref.events
    assert cmp.ir_steps == ref.ir_steps
    assert _span_rows(cmp.trace) == _span_rows(ref.trace)
    assert _step_rows(cmp.step_trace) == _step_rows(ref.step_trace)


CONFIGS = [
    # (approach, n_cores, batch_size, ramp_up)
    (FLAT_ORIGINAL, 8, 1, False),
    (FLAT_ORIGINAL, 32, 1, False),
    (FLAT_OPTIMIZED, 8, 1, False),
    (FLAT_OPTIMIZED, 32, 4, False),
    (FLAT_OPTIMIZED, 32, 4, True),
    (HYBRID_MULTIPLE, 16, 2, False),
    (HYBRID_MULTIPLE, 32, 4, False),
    (HYBRID_MASTER_ONLY, 16, 2, False),
    (HYBRID_MASTER_ONLY, 32, 1, False),
    (FLAT_SUBGROUPS, 32, 2, False),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "approach,n_cores,batch_size,ramp_up",
        CONFIGS,
        ids=[f"{a.name}-{c}c-b{b}{'-ramp' if r else ''}" for a, c, b, r in CONFIGS],
    )
    def test_bit_identical(self, approach, n_cores, batch_size, ramp_up):
        ref, cmp = _run_both(approach, n_cores, batch_size, ramp_up)
        _assert_identical(ref, cmp)

    def test_single_core(self):
        ref, cmp = _run_both(FLAT_OPTIMIZED, 1, shape=(16, 16, 16), n_grids=4)
        _assert_identical(ref, cmp)

    def test_spread_placement(self):
        ref, cmp = _run_both(
            FLAT_OPTIMIZED, 32, batch_size=2, placement="spread"
        )
        _assert_identical(ref, cmp)

    def test_without_tracing(self):
        # tracing off exercises the compiled engine's untraced fast path
        job = _job()
        ref = simulate_fd(job, HYBRID_MULTIPLE, 32, batch_size=2,
                          engine="reference")
        cmp = simulate_fd(job, HYBRID_MULTIPLE, 32, batch_size=2,
                          engine="compiled")
        assert cmp.total == ref.total
        assert cmp.utilization == ref.utilization
        assert cmp.messages == ref.messages
        assert cmp.events == ref.events


class TestEngineEquivalenceUnderFaults:
    FAULTY = FaultPlan(
        seed=7,
        p_delay=0.15,
        p_drop=0.1,
        p_duplicate=0.1,
        p_corrupt=0.1,
        delay=3e-4,
        retransmit_timeout=1e-4,
    )

    @pytest.mark.parametrize(
        "approach,n_cores,batch_size",
        [
            (FLAT_OPTIMIZED, 32, 2),
            (HYBRID_MULTIPLE, 32, 2),
            (FLAT_SUBGROUPS, 32, 1),
        ],
        ids=["flat-opt", "hybrid-mult", "subgroups"],
    )
    def test_seeded_faults(self, approach, n_cores, batch_size):
        ref, cmp = _run_both(
            approach, n_cores, batch_size, fault_plan=self.FAULTY
        )
        assert ref.fault_events > 0
        _assert_identical(ref, cmp)

    def test_rank_kill_restart(self):
        plan = FaultPlan(seed=3, kill_at={2: 5, 5: 9}, restart_time=2e-3)
        ref, cmp = _run_both(FLAT_OPTIMIZED, 32, 2, fault_plan=plan)
        _assert_identical(ref, cmp)

    def test_kill_under_hybrid(self):
        plan = FaultPlan(seed=4, kill_at={1: 3}, restart_time=1e-3)
        ref, cmp = _run_both(HYBRID_MASTER_ONLY, 16, 2, fault_plan=plan)
        _assert_identical(ref, cmp)
