"""Resilience analysis: Daly cadence, DES fault replay, chaos suite.

Three planes, one fault model: the analytic sweep prices checkpointing
at paper scale, the DES replays a :class:`FaultPlan` as timing
perturbations, and the chaos suite subjects the functional engine to the
same plan — these tests pin each plane and their agreement points.
"""

import numpy as np
import pytest

from repro.analysis import (
    checkpoint_bytes,
    format_mtbf_table,
    mtbf_sweep,
    optimal_checkpoint_interval,
    resilience_overhead,
    run_chaos_suite,
    suite_passed,
    survival_matrix,
)
from repro.core import FLAT_OPTIMIZED
from repro.core.perfmodel import FDJob
from repro.core.simrun import simulate_fd
from repro.grid import GridDescriptor
from repro.transport import FaultPlan

JOB = FDJob(GridDescriptor((144, 144, 144)), 32)


class TestDalyModel:
    def test_optimum_minimizes_overhead(self):
        """tau_opt = sqrt(2*delta*M) beats every nearby interval."""
        delta, mtbf = 2.0, 3600.0
        tau = optimal_checkpoint_interval(delta, mtbf)
        assert tau == pytest.approx(np.sqrt(2 * delta * mtbf))
        best = resilience_overhead(tau, delta, mtbf)
        for factor in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
            assert resilience_overhead(tau * factor, delta, mtbf) >= best

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(0.0, 3600.0)
        with pytest.raises(ValueError):
            resilience_overhead(-1.0, 2.0, 3600.0)

    def test_checkpoint_bytes_mirrors_scf_snapshot(self):
        # (bands + 3 aux fields) x one float64 grid field
        field = 8 * 144**3
        assert checkpoint_bytes(JOB) == (32 + 3) * field
        assert checkpoint_bytes(FDJob(JOB.grid, 512)) == (512 + 3) * field

    def test_checkpoint_bytes_matches_functional_snapshot(self):
        """The analytic size and an actual SCFCheckpoint must agree."""
        from repro.core.jobspec import (
            JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec,
        )
        from repro.dft import DistributedSCF, MemoryCheckpointStore

        n = 6
        gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=0.6)
        store = MemoryCheckpointStore()
        spec = JobSpec(
            problem=ProblemSpec.from_grid(gd, 2),
            layout=LayoutSpec(n_cores=2),
            runtime=RuntimeSpec(
                tolerance=0.0, max_iterations=1, band_iterations=2,
            ),
        )
        DistributedSCF.from_spec(
            spec, np.zeros(gd.shape), checkpoint_store=store
        ).run()
        ckpt = store.latest()
        payload = sum(
            arr.nbytes for fields in ckpt.blocks.values() for arr in fields.values()
        )
        assert payload == checkpoint_bytes(FDJob(gd, 2))


class TestMtbfSweep:
    def test_sweep_shape_and_monotonicity(self):
        rows = mtbf_sweep(JOB, n_cores=16384)
        assert [r.node_mtbf_years for r in rows] == [50.0, 10.0, 2.0, 0.5]
        # worse nodes -> shorter intervals, more overhead, more failures
        for a, b in zip(rows, rows[1:]):
            assert b.system_mtbf_hours < a.system_mtbf_hours
            assert b.interval < a.interval
            assert b.overhead > a.overhead
            assert b.failures_per_day > a.failures_per_day
        for r in rows:
            assert 0.0 < r.efficiency < 1.0
        # one estimated iteration time converts every interval
        t_iter = rows[0].interval / rows[0].iterations_per_checkpoint
        for r in rows:
            assert r.iterations_per_checkpoint == pytest.approx(
                r.interval / t_iter
            )

    def test_system_mtbf_scales_with_node_count(self):
        rows_16k = mtbf_sweep(JOB, n_cores=16384)
        rows_4k = mtbf_sweep(JOB, n_cores=4096)
        for row_16k, row_4k in zip(rows_16k, rows_4k):
            assert row_16k.system_mtbf_hours == pytest.approx(
                row_4k.system_mtbf_hours / 4.0
            )

    def test_rejects_non_node_multiples(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            mtbf_sweep(JOB, n_cores=10)

    def test_table_renders(self):
        rows = mtbf_sweep(JOB)
        text = format_mtbf_table(rows)
        assert "node MTBF" in text and "efficiency" in text


class TestDesFaultReplay:
    """The DES accepts the same FaultPlan as the functional plane."""

    SMALL = FDJob(GridDescriptor((16, 16, 16)), 4)

    def _run(self, plan=None):
        return simulate_fd(self.SMALL, FLAT_OPTIMIZED, 4, fault_plan=plan)

    def test_zero_probability_plan_matches_clean_run(self):
        clean = self._run()
        nulled = self._run(FaultPlan(seed=0))
        assert nulled.total == clean.total  # bit-identical timing
        assert nulled.fault_events == 0

    def test_message_faults_cost_time(self):
        clean = self._run()
        faulty = self._run(FaultPlan(seed=0, p_drop=0.2, p_delay=0.2, delay=0.01))
        assert faulty.fault_events > 0
        assert faulty.total > clean.total

    def test_rank_kill_adds_restart_time(self):
        clean = self._run()
        killed = self._run(FaultPlan(seed=0, kill_at={1: 5}, restart_time=0.5))
        assert killed.total == pytest.approx(clean.total + 0.5, rel=0.05)

    def test_same_seed_same_makespan(self):
        plan = FaultPlan(seed=11, p_drop=0.1, p_duplicate=0.1)
        a = self._run(plan.replica())
        b = self._run(plan.replica())
        assert a.total == b.total and a.fault_events == b.fault_events


@pytest.fixture(scope="module")
def chaos_seed0():
    """One seed-0 suite run shared by every read-only assertion below."""
    return run_chaos_suite(seed=0, scf=False)


class TestChaosSuite:
    def test_seed0_suite_passes(self, chaos_seed0):
        assert suite_passed(chaos_seed0)
        by_name = {o.scenario: o for o in chaos_seed0}
        for kind in ("delay", "duplicate", "drop", "corrupt"):
            o = by_name[f"one-{kind}"]
            assert o.injected == 1 and o.identical
        kill = by_name["rank-kill"]
        assert kill.outcome == "crashed"
        assert "RankKilledError" in kill.errors
        # the stencil rows' retry outcome: attempts, outcome, errors seen
        assert {
            name: (o.attempts, o.outcome, o.errors)
            for name, o in by_name.items()
            if name.startswith("one-") or name in ("storm", "rank-kill")
        } == {
            "one-delay": (1, "clean", ()),
            "one-duplicate": (1, "clean", ()),
            "one-drop": (2, "recovered", ("HaloTimeoutError",)),
            "one-corrupt": (2, "recovered", ("CorruptPayloadError",)),
            "storm": (
                5, "recovered", ("CorruptPayloadError", "HaloTimeoutError"),
            ),
            "rank-kill": (1, "crashed", ("RankKilledError",)),
        }

    def test_suite_is_deterministic_per_seed(self, chaos_seed0):
        # dataclass equality: full survival matrix
        assert run_chaos_suite(seed=0, scf=False) == chaos_seed0

    def test_survival_matrix_renders(self, chaos_seed0):
        text = survival_matrix(chaos_seed0)
        assert "rank-kill" in text and "storm" in text

    def test_suite_passed_rejects_hung_or_wrong_outcomes(self, chaos_seed0):
        from repro.analysis import ChaosOutcome

        bad = [
            ChaosOutcome("one-drop", 1, 3, "crashed", False, ("HaloTimeoutError",))
            if o.scenario == "one-drop" else o
            for o in chaos_seed0
        ]
        assert not suite_passed(bad)

    @pytest.mark.parametrize("nb, name, config", [
        # the `repro chaos` row: 1 band, 2 ranks -> the lone survivor
        (1, "scf-kill-resume", dict(n_bands=1, n_cores=2, kill_rank=1)),
        # a `repro chaos --controller` row: 4 ranks x 2 band groups
        (2, "ctrl-kill-nb2", dict(n_bands=4, n_cores=4, kill_rank=2)),
    ], ids=["nb1", "nb2"])
    def test_scf_kill_recovers_through_the_controller(self, nb, name, config):
        from repro.analysis.chaos import _scf_kill
        from repro.core import DegradationPolicy

        outcome = _scf_kill(
            name, 0, nb=nb,
            policy=DegradationPolicy(max_restarts=2, adaptive_cadence=False),
            **config,
        )
        assert outcome.outcome == "recovered" and outcome.identical
        assert outcome.attempts == 2
        assert outcome.errors == ("RankKilledError",)
        assert suite_passed([outcome])

    def test_unfired_planned_kill_is_a_failing_row(self, monkeypatch):
        """A kill aimed past the end of the run survives nothing: the row
        must say so and fail the suite instead of passing as clean."""
        from repro.analysis import chaos
        from repro.core import DegradationPolicy

        monkeypatch.setattr(chaos, "kill_op_mid_iteration", lambda *a: 10 ** 9)
        outcome = chaos._scf_kill(
            "scf-kill-resume", 0, n_bands=1, n_cores=2, nb=1,
            kill_rank=1, policy=DegradationPolicy(max_restarts=2),
        )
        assert outcome.outcome == "unfired" and outcome.injected == 0
        assert outcome.identical  # the untouched run still hit the oracle
        assert "never fired" in outcome.errors[-1]
        assert not suite_passed([outcome])
        assert "unfired" in survival_matrix([outcome])
