"""RecoveryController: the planner-driven degradation ladder end to end.

The self-healing contract (docs/ROBUSTNESS.md):

* a fatal rank loss mid-run recovers *without* a caller-supplied shrink
  target — the controller consumes the crash report, asks the planner
  for the best feasible layout on the survivors, regroups the latest
  checkpoint onto it and converges to the fault-free oracle at 1e-10;
* transient failures retry in place (same layout, no replan);
* when no surviving core count admits a feasible layout the ladder
  raises a typed :class:`DegradationError` carrying the rejections;
* the adaptive cadence applies Daly's optimal interval within 10%;
* every rung is observable: ``steps`` records the transition, the
  ``recovery_*`` instruments land in the metrics registry;
* a random seeded kill (any rank, any operation, any band grouping)
  ends recovered-to-oracle or in a typed error — never a hang.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AdaptiveCadence, DegradationError, DegradationPolicy
from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
from repro.dft import DistributedSCF, MemoryCheckpointStore, RecoveryController
from repro.grid import GridDescriptor
from repro.transport import (
    FaultPlan,
    FaultyTransport,
    InprocTransport,
    TransportError,
)


def aniso_trap(n=6, spacing=0.6):
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=spacing)
    x, y, z = gd.coordinates()
    c = (n + 1) * spacing / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    return gd, v


def band_scf(n_ranks, n_band_groups, store=None, metrics=None):
    gd, v = aniso_trap()
    spec = JobSpec(
        problem=ProblemSpec.from_grid(gd, 4),
        layout=LayoutSpec(n_cores=n_ranks, n_band_groups=n_band_groups),
        runtime=RuntimeSpec(
            mixing=0.6, tolerance=0.0, max_iterations=4,
            band_iterations=4, checkpoint_every=1, seed=0,
        ),
    )
    return DistributedSCF.from_spec(
        spec, v, occupations=[2.0] * 4,
        checkpoint_store=store, metrics=metrics,
    )


def kill_then_clean(plan):
    """A transport factory: faulty on attempt 0, clean afterwards."""

    def factory(attempt, n_ranks):
        inner = InprocTransport(n_ranks, default_timeout=1.0)
        return FaultyTransport(inner, plan) if attempt == 0 else inner

    return factory


@functools.lru_cache(maxsize=None)
def oracle_run(nb):
    """The fault-free 4-rank run with ``nb`` band groups, computed once."""
    return band_scf(n_ranks=4, n_band_groups=nb).run()


@pytest.fixture(scope="module")
def oracle():
    """The fault-free run every recovered run must reproduce."""
    return oracle_run(4)


class TestConstruction:
    def test_requires_checkpoint_store(self):
        with pytest.raises(ValueError, match="checkpoint_store"):
            RecoveryController(band_scf(2, 1))

    def test_policy_defaults(self):
        ctrl = RecoveryController(band_scf(2, 1, store=MemoryCheckpointStore()))
        assert ctrl.policy.max_restarts == 3
        assert ctrl.policy.adaptive_cadence is True
        assert ctrl.steps == [] and ctrl.reports == []


class TestDegradationLadder:
    def test_nb4_rank_loss_recovers_to_oracle(self, oracle):
        # the acceptance scenario: 4 ranks x 4 band groups, a rank dies
        # mid-run, no shrink target is supplied anywhere — the planner
        # picks the degraded layout and the result matches the oracle
        scf = band_scf(n_ranks=4, n_band_groups=4,
                       store=MemoryCheckpointStore())
        plan = FaultPlan(seed=0, kill_at={2: 400})
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(adaptive_cadence=False),
            transport_factory=kill_then_clean(plan),
        )
        res = ctrl.run()
        assert res.restarts == 1
        assert res.total_energy == pytest.approx(
            oracle.total_energy, abs=1e-10
        )
        np.testing.assert_allclose(res.states, oracle.states, atol=1e-8)
        # the ladder shrank onto a planner-chosen layout
        assert len(ctrl.steps) == 1
        step = ctrl.steps[0]
        assert step.shrank
        assert step.from_ranks == 4 and step.from_groups == 4
        assert step.to_ranks == 3  # survivors after blast radius 1
        assert step.to_ranks == ctrl.scf.layout.n_ranks
        assert step.to_groups == res.final_band_groups
        assert not step.transient
        assert step.error_type == "RankKilledError"
        assert step.resumed_iteration >= 1  # resumed a committed snapshot

    def test_nb2_rank_loss_recovers_to_oracle(self, oracle):
        scf = band_scf(n_ranks=4, n_band_groups=2,
                       store=MemoryCheckpointStore())
        plan = FaultPlan(seed=0, kill_at={1: 400})
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(adaptive_cadence=False),
            transport_factory=kill_then_clean(plan),
        )
        res = ctrl.run()
        assert res.restarts == 1
        assert res.total_energy == pytest.approx(
            oracle.total_energy, abs=1e-10
        )

    def test_transient_failure_retries_in_place(self, oracle):
        # a dropped halo message times out: transient — same layout,
        # no replan, the steps entry records an in-place retry
        scf = band_scf(n_ranks=4, n_band_groups=2,
                       store=MemoryCheckpointStore())
        plan = FaultPlan(seed=0, inject={(0, 1): "drop"})
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(adaptive_cadence=False),
            transport_factory=kill_then_clean(plan),
        )
        res = ctrl.run()
        assert res.restarts == 1
        assert res.total_energy == pytest.approx(
            oracle.total_energy, abs=1e-10
        )
        assert ctrl.scf.layout.n_ranks == 4  # no shrink
        assert len(ctrl.steps) == 1
        assert ctrl.steps[0].transient and not ctrl.steps[0].shrank

    def test_restart_budget_exhausted_reraises(self):
        # every attempt killed: after max_restarts the error propagates
        scf = band_scf(n_ranks=4, n_band_groups=2,
                       store=MemoryCheckpointStore())

        def always_faulty(attempt, n_ranks):
            return FaultyTransport(
                InprocTransport(n_ranks, default_timeout=1.0),
                FaultPlan(seed=attempt, kill_at={0: 50}),
            )

        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(
                max_restarts=1, adaptive_cadence=False
            ),
            transport_factory=always_faulty,
        )
        with pytest.raises(TransportError):
            ctrl.run()
        assert len(ctrl.reports) == 2  # initial + one retry

    def test_no_feasible_layout_raises_degradation_error(self):
        # blast radius eats every rank: the ladder runs out of rungs
        # and raises the typed error with the survivor count
        scf = band_scf(n_ranks=2, n_band_groups=1,
                       store=MemoryCheckpointStore())
        plan = FaultPlan(seed=0, kill_at={1: 400})
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(
                ranks_lost_per_failure=2, adaptive_cadence=False
            ),
            transport_factory=kill_then_clean(plan),
        )
        with pytest.raises(DegradationError) as exc:
            ctrl.run()
        assert exc.value.survivors == 0
        assert "no feasible degraded layout" in str(exc.value)


#: transport operations every rank performs in a fault-free run of the
#: fixture, per band grouping — the range a kill can land in (a kill
#: drawn past a rank's last operation never fires, and the clean run is
#: one of the outcomes the property covers)
RUN_OPS = {1: 8800, 2: 5000, 4: 690}


class TestRecoveryProperty:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        victim=st.integers(0, 3),
        nb_and_kill_op=st.sampled_from(sorted(RUN_OPS)).flatmap(
            lambda nb: st.tuples(st.just(nb), st.integers(1, RUN_OPS[nb]))
        ),
    )
    def test_random_kill_recovers_to_oracle_or_raises_typed(
        self, seed, victim, nb_and_kill_op
    ):
        nb, kill_op = nb_and_kill_op
        # the seed draws which sends are delayed around the kill
        plan = FaultPlan(
            seed=seed, p_delay=0.01, delay=1e-4, kill_at={victim: kill_op}
        )
        ctrl = RecoveryController(
            band_scf(n_ranks=4, n_band_groups=nb,
                     store=MemoryCheckpointStore()),
            policy=DegradationPolicy(adaptive_cadence=False),
            transport_factory=kill_then_clean(plan),
        )
        try:
            res = ctrl.run()
        except (DegradationError, TransportError):
            return  # a typed terminal failure is an allowed outcome
        assert res.restarts == len(ctrl.steps) <= 1
        assert res.total_energy == pytest.approx(
            oracle_run(nb).total_energy, abs=1e-8
        )


class TestObservability:
    def test_recovery_metrics_recorded(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        scf = band_scf(n_ranks=4, n_band_groups=2,
                       store=MemoryCheckpointStore(), metrics=reg)
        plan = FaultPlan(seed=0, kill_at={2: 400})
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(adaptive_cadence=False),
            transport_factory=kill_then_clean(plan),
        )
        ctrl.run()
        assert reg.counter("recovery_attempts_total").value == 2
        assert reg.counter("recovery_replans_total").value == 1
        assert reg.counter(
            "recovery_failures_total", error="RankKilledError"
        ).value == 1
        assert reg.histogram("recovery_downtime_seconds").count == 1
        assert reg.gauge("recovery_ranks").value == 3.0

    def test_recovery_spans_on_tracer(self):
        from repro.obs import SpanTracer

        tracer = SpanTracer()
        scf = band_scf(n_ranks=4, n_band_groups=2,
                       store=MemoryCheckpointStore())
        plan = FaultPlan(seed=0, kill_at={2: 400})
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(adaptive_cadence=False),
            transport_factory=kill_then_clean(plan),
            tracer=tracer,
        )
        ctrl.run()
        resources = {s.resource for s in tracer.spans()}
        assert "recovery.attempt1" in resources  # the crashed attempt
        assert "recovery.attempt2" in resources  # the completed one


class TestAdaptiveCadence:
    def test_interval_matches_daly_within_10_percent(self):
        # the acceptance bound: interval x iteration time stays within
        # 10% of optimal_checkpoint_interval (clamping apart)
        from repro.analysis.resilience import optimal_checkpoint_interval

        cadence = AdaptiveCadence(checkpoint_seconds=0.05, mtbf=100.0)
        opt = optimal_checkpoint_interval(0.05, 100.0)
        for t_iter in (0.2, 0.5, 1.0):
            interval = cadence.interval_iterations(t_iter)
            assert interval * t_iter == pytest.approx(opt, rel=0.10)

    def test_interval_clamped_to_policy_bounds(self):
        cadence = AdaptiveCadence(
            checkpoint_seconds=0.05, mtbf=100.0, min_every=2, max_every=4
        )
        assert cadence.interval_iterations(100.0) == 2  # slow iterations
        assert cadence.interval_iterations(1e-6) == 4  # fast iterations

    def test_due_fires_on_the_interval(self):
        cadence = AdaptiveCadence(checkpoint_seconds=0.05, mtbf=100.0)
        t_iter = 1.0  # interval = round(sqrt(2*0.05*100)) = 3
        fired = [it for it in range(1, 13) if cadence.due(it, t_iter)]
        assert fired == [3, 6, 9, 12]

    def test_due_is_memoized_per_iteration(self):
        # every rank thread asks with the same allreduced time; the
        # decision must be computed once and replayed to the rest
        cadence = AdaptiveCadence(checkpoint_seconds=0.05, mtbf=100.0)
        first = cadence.due(3, 1.0)
        assert all(cadence.due(3, 1.0) == first for _ in range(4))

    def test_controller_attaches_cadence_from_policy_prior(self):
        # expected_mtbf is the only failure-rate signal before the
        # first failure; with it set the controller installs a cadence
        scf = band_scf(n_ranks=2, n_band_groups=1,
                       store=MemoryCheckpointStore())
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(expected_mtbf=10.0),
        )
        res = ctrl.run()
        assert res.restarts == 0
        assert ctrl.scf.cadence is not None
        assert ctrl.scf.cadence.mtbf == 10.0

    def test_no_mtbf_signal_keeps_static_cadence(self):
        scf = band_scf(n_ranks=2, n_band_groups=1,
                       store=MemoryCheckpointStore())
        ctrl = RecoveryController(scf)  # adaptive on, but no prior
        res = ctrl.run()
        assert res.restarts == 0
        assert ctrl.scf.cadence is None

    def test_adaptive_run_still_recovers(self, oracle):
        scf = band_scf(n_ranks=4, n_band_groups=2,
                       store=MemoryCheckpointStore())
        plan = FaultPlan(seed=0, kill_at={2: 400})
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(expected_mtbf=0.5),
            transport_factory=kill_then_clean(plan),
        )
        res = ctrl.run()
        assert res.restarts == 1
        assert res.total_energy == pytest.approx(
            oracle.total_energy, abs=1e-10
        )


class TestDegradationPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"max_restarts": -1},
        {"min_ranks": 0},
        {"ranks_lost_per_failure": 0},
        {"checkpoint_seconds": -1.0},
        {"min_checkpoint_every": 0},
        {"max_checkpoint_every": 0},
        {"expected_mtbf": 0.0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            DegradationPolicy(**kwargs)

    def test_degradation_step_describe(self):
        from repro.core import DegradationStep

        step = DegradationStep(
            attempt=1, failed_rank=2, error_type="RankKilledError",
            transient=False, from_ranks=4, from_groups=4, to_ranks=3,
            to_groups=1, batch_size=1, resumed_iteration=2,
            checkpoint_every=1,
        )
        text = step.describe()
        assert "4" in text and "3" in text
        assert step.shrank
