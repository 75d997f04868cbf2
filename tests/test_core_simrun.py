"""Tests for the DES runner + cross-validation of the analytic model.

The DES executes the schedules message by message with exact link/lock
contention; the analytic model approximates them in closed form.  At small
scale both must agree — this is the evidence that lets the model speak for
the 16384-core configurations.
"""

import pytest

from repro.core import (
    ALL_APPROACHES,
    FDJob,
    FLAT_OPTIMIZED,
    FLAT_ORIGINAL,
    HYBRID_MASTER_ONLY,
    HYBRID_MULTIPLE,
    PerformanceModel,
    simulate_fd,
)
from repro.grid import GridDescriptor


def job(shape=(48, 48, 48), n_grids=16):
    return FDJob(GridDescriptor(shape), n_grids)


class TestSimrunBasics:
    def test_returns_sensible_result(self):
        r = simulate_fd(job(), FLAT_OPTIMIZED, 32, batch_size=4)
        assert r.total > 0
        assert 0 < r.utilization <= 1
        assert r.comm_bytes_per_node > 0
        assert r.messages > 0

    def test_single_core_has_no_messages(self):
        r = simulate_fd(job((16, 16, 16), 4), FLAT_OPTIMIZED, 1)
        assert r.messages == 0
        assert r.comm_bytes_per_node == 0

    def test_invalid_core_count(self):
        # 3 cores is >= 1: the message must name the whole-node rule
        for n_cores in (3, 6):
            rule = f"1, 2 or a multiple of 4 cores.*got {n_cores}"
            with pytest.raises(ValueError, match=rule):
                simulate_fd(job(), FLAT_OPTIMIZED, n_cores)
        with pytest.raises(ValueError):
            simulate_fd(job(), FLAT_OPTIMIZED, 0)

    def test_batching_rejected_for_original(self):
        with pytest.raises(ValueError):
            simulate_fd(job(), FLAT_ORIGINAL, 8, batch_size=2)

    def test_batching_reduces_messages(self):
        r1 = simulate_fd(job(), FLAT_OPTIMIZED, 32, batch_size=1)
        r4 = simulate_fd(job(), FLAT_OPTIMIZED, 32, batch_size=4)
        assert r1.messages == 4 * r4.messages
        assert r1.comm_bytes_per_node == pytest.approx(r4.comm_bytes_per_node)

    def test_batching_speeds_up_small_blocks(self):
        small = job((24, 24, 24), 32)
        r1 = simulate_fd(small, FLAT_OPTIMIZED, 64, batch_size=1)
        r8 = simulate_fd(small, FLAT_OPTIMIZED, 64, batch_size=8)
        assert r8.total < r1.total

    def test_hybrid_uses_fewer_domains(self):
        """Hybrid decomposes per node: 4x fewer, larger messages."""
        r_flat = simulate_fd(job(), FLAT_OPTIMIZED, 32, batch_size=1)
        r_hyb = simulate_fd(job(), HYBRID_MULTIPLE, 32, batch_size=1)
        assert r_hyb.comm_bytes_per_node < r_flat.comm_bytes_per_node

    def test_optimized_beats_original(self):
        r_orig = simulate_fd(job(), FLAT_ORIGINAL, 32)
        r_opt = simulate_fd(job(), FLAT_OPTIMIZED, 32, batch_size=4)
        assert r_opt.total < r_orig.total

    def test_single_mode_rejects_several_comm_threads(self):
        """SINGLE forbids concurrent MPI calls from one rank, so an
        approach whose four threads all communicate cannot request it —
        it used to replay silently to a meaningless total."""
        import dataclasses

        from repro.core.approaches import ThreadMode

        with pytest.raises(ValueError, match="ThreadMode.MULTIPLE"):
            dataclasses.replace(HYBRID_MULTIPLE, thread_mode=ThreadMode.SINGLE)
        # one communicating thread (master-only) is what SINGLE allows
        assert HYBRID_MASTER_ONLY.thread_mode is ThreadMode.SINGLE

    def test_deterministic(self):
        a = simulate_fd(job(), HYBRID_MULTIPLE, 32, batch_size=2)
        b = simulate_fd(job(), HYBRID_MULTIPLE, 32, batch_size=2)
        assert a.total == b.total
        assert a.messages == b.messages


class TestModelCrossValidation:
    """The core evidence: DES and closed form agree at small scale."""

    @pytest.mark.parametrize(
        "approach,tolerance",
        [
            (FLAT_OPTIMIZED, 0.10),
            (HYBRID_MULTIPLE, 0.10),
            (HYBRID_MASTER_ONLY, 0.10),
            # The DES's lockstep determinism over-serializes the blocking
            # original pattern (an upper bound); the model encodes the
            # measured self-staggered behaviour.  Wider band, same order.
            (FLAT_ORIGINAL, 0.45),
        ],
        ids=lambda x: x.name if hasattr(x, "name") else str(x),
    )
    @pytest.mark.parametrize("n_cores", [8, 32])
    def test_total_time_agreement(self, approach, tolerance, n_cores):
        pm = PerformanceModel()
        j = job()
        b = 4 if approach.supports_batching else 1
        model = pm.evaluate(j, approach, n_cores, batch_size=b)
        sim = simulate_fd(j, approach, n_cores, batch_size=b)
        assert model.total == pytest.approx(sim.total, rel=tolerance)

    @pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.name)
    def test_comm_bytes_agree_exactly(self, approach):
        """Both planes compute per-node traffic from the same geometry."""
        pm = PerformanceModel()
        j = job()
        model = pm.evaluate(j, approach, 32)
        sim = simulate_fd(j, approach, 32)
        assert model.comm_bytes_per_node == pytest.approx(
            sim.comm_bytes_per_node, rel=0.01
        )

    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_agreement_across_batch_sizes(self, batch):
        pm = PerformanceModel()
        j = job()
        model = pm.evaluate(j, FLAT_OPTIMIZED, 32, batch_size=batch)
        sim = simulate_fd(j, FLAT_OPTIMIZED, 32, batch_size=batch)
        assert model.total == pytest.approx(sim.total, rel=0.12)

    def test_agreement_with_ramp_up(self):
        pm = PerformanceModel()
        j = job((48, 48, 48), 32)
        model = pm.evaluate(j, HYBRID_MULTIPLE, 32, batch_size=4, ramp_up=True)
        sim = simulate_fd(j, HYBRID_MULTIPLE, 32, batch_size=4, ramp_up=True)
        assert model.total == pytest.approx(sim.total, rel=0.12)

    def test_ordering_preserved_at_small_scale(self):
        """Even where absolute agreement is loose, both planes rank the
        approaches identically."""
        pm = PerformanceModel()
        j = job((24, 24, 24), 32)  # small blocks: comm matters
        model_order = sorted(
            ALL_APPROACHES,
            key=lambda a: pm.evaluate(
                j, a, 32, batch_size=4 if a.supports_batching else 1
            ).total,
        )
        sim_order = sorted(
            ALL_APPROACHES,
            key=lambda a: simulate_fd(
                j, a, 32, batch_size=4 if a.supports_batching else 1
            ).total,
        )
        assert [a.name for a in model_order] == [a.name for a in sim_order]
