"""Deterministic fault injection: plans, framing, supervision.

The robustness contract under test (docs/ROBUSTNESS.md):

* every injected fault surfaces as a *typed*, step-attributed error —
  never a hang, never silent corruption;
* fault sequences are a pure function of the seed — identical across
  runs and thread interleavings;
* transient faults clear under bounded supervised retry, and the
  recovered result is bit-identical to the fault-free oracle.
"""

import numpy as np
import pytest

from repro.core import DistributedStencil
from repro.grid import Decomposition, GridDescriptor, HaloSpec, gather, scatter
from repro.stencil import apply_stencil_global, laplacian_coefficients
from repro.transport import (
    CorruptPayloadError,
    FaultPlan,
    FaultyTransport,
    HaloTimeoutError,
    InprocTransport,
    RankKilledError,
    RetryPolicy,
    TransportError,
    is_transient,
    run_ranks,
    run_ranks_supervised,
)
from repro.transport.faults import FAULT_KINDS, decode_payload, encode_payload


# -- checksummed framing ------------------------------------------------------
class TestPayloadFraming:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint8])
    def test_roundtrip_preserves_dtype_shape_values(self, dtype):
        rng = np.random.default_rng(0)
        arr = (rng.standard_normal((3, 4, 5)) * 100).astype(dtype)
        out = decode_payload(encode_payload(arr))
        assert out.dtype == arr.dtype and out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)

    def test_roundtrip_empty_and_scalar_shapes(self):
        for arr in (np.empty((0,)), np.array(3.5), np.zeros((2, 0, 3))):
            out = decode_payload(encode_payload(arr))
            assert out.shape == arr.shape

    def test_noncontiguous_input_ok(self):
        arr = np.arange(24, dtype=float).reshape(4, 6)[:, ::2]
        np.testing.assert_array_equal(decode_payload(encode_payload(arr)), arr)

    def test_bitflip_detected(self):
        frame = encode_payload(np.ones((4, 4)))
        frame = frame.copy()
        frame[-1] ^= 0x01  # flip one body bit
        with pytest.raises(CorruptPayloadError, match="checksum mismatch"):
            decode_payload(frame)

    def test_bad_magic_detected(self):
        frame = encode_payload(np.ones(3)).copy()
        frame[0] ^= 0xFF
        with pytest.raises(CorruptPayloadError, match="magic"):
            decode_payload(frame)

    def test_truncated_frame_detected(self):
        with pytest.raises(CorruptPayloadError, match="too short"):
            decode_payload(np.zeros(3, dtype=np.uint8))


# -- the plan -----------------------------------------------------------------
class TestFaultPlan:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError, match="p_drop"):
            FaultPlan(seed=0, p_drop=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(seed=0, p_drop=0.6, p_corrupt=0.6)
        with pytest.raises(ValueError, match="inject"):
            FaultPlan(seed=0, inject={(0, 1): "explode"})

    def test_decide_is_pure_and_seeded(self):
        plan = FaultPlan(seed=42, p_drop=0.3, p_corrupt=0.3)
        seq = [plan.decide(1, i) for i in range(50)]
        assert seq == [plan.decide(1, i) for i in range(50)]  # pure
        assert seq == [
            FaultPlan(seed=42, p_drop=0.3, p_corrupt=0.3).decide(1, i)
            for i in range(50)
        ]  # seeded
        other = [FaultPlan(seed=43, p_drop=0.3, p_corrupt=0.3).decide(1, i)
                 for i in range(50)]
        assert seq != other  # seed matters
        assert set(seq) <= {None, "drop", "corrupt"}

    def test_inject_overrides_probabilities(self):
        plan = FaultPlan(seed=0, inject={(2, 7): "delay"})
        assert plan.decide(2, 7) == "delay"
        assert plan.decide(2, 8) is None

    def test_faults_fire_once(self):
        plan = FaultPlan(seed=0, inject={(0, 0): "drop"})
        assert plan.take_fault(0, 0, "isend") == "drop"
        assert plan.take_fault(0, 0, "isend") is None  # one-shot
        assert [e.kind for e in plan.events] == ["drop"]

    def test_kill_clock_fires_once_at_or_after_index(self):
        plan = FaultPlan(seed=0, kill_at={1: 5})
        assert not plan.should_kill(1, 4)
        assert plan.should_kill(1, 5)
        assert not plan.should_kill(1, 6)  # already fired
        assert not plan.should_kill(0, 99)  # other ranks unaffected

    def test_replica_replays_identically(self):
        plan = FaultPlan(seed=9, p_drop=0.5)
        for i in range(20):
            plan.take_fault(0, plan.next_send(0), "isend")
        twin = plan.replica()
        for i in range(20):
            twin.take_fault(0, twin.next_send(0), "isend")
        assert plan.events == twin.events


# -- the wrapped engine -------------------------------------------------------
def make_case(n_ranks=2, n_grids=4, shape=(8, 8, 8)):
    gd = GridDescriptor(shape)
    decomp = Decomposition(gd, n_ranks)
    coeffs = laplacian_coefficients(2, gd.spacing)
    engine = DistributedStencil(decomp, coeffs)
    fields = {g: gd.random(seed=g) for g in range(n_grids)}
    blocks = {g: scatter(fields[g], decomp, HaloSpec(2)) for g in fields}
    oracle = {g: apply_stencil_global(fields[g], coeffs) for g in fields}

    def rank_fn(ep):
        return engine.apply(ep, {g: blocks[g][ep.rank] for g in blocks})

    def identical(results):
        return all(
            np.array_equal(
                gather([results[r][g] for r in range(n_ranks)]), oracle[g]
            )
            for g in oracle
        )

    return rank_fn, identical


class TestFaultyTransport:
    def test_clean_plan_is_bit_identical(self):
        rank_fn, identical = make_case()
        tr = FaultyTransport(InprocTransport(2, default_timeout=5.0), FaultPlan(seed=0))
        assert identical(run_ranks(2, rank_fn, transport=tr))

    def test_drop_times_out_with_typed_error(self):
        rank_fn, _ = make_case()
        plan = FaultPlan(seed=0, inject={(0, 1): "drop"})
        tr = FaultyTransport(InprocTransport(2, default_timeout=0.3), plan)
        with pytest.raises(HaloTimeoutError) as exc_info:
            run_ranks(2, rank_fn, transport=tr)
        assert is_transient(exc_info.value)
        assert exc_info.value.step_info is not None  # engine attributed it

    def test_corrupt_raises_checksum_error_with_step(self):
        rank_fn, _ = make_case()
        plan = FaultPlan(seed=0, inject={(0, 1): "corrupt"})
        tr = FaultyTransport(InprocTransport(2, default_timeout=5.0), plan)
        with pytest.raises(CorruptPayloadError) as exc_info:
            run_ranks(2, rank_fn, transport=tr)
        assert exc_info.value.step_info is not None
        assert exc_info.value.step_info.step_kind == "WaitAll"

    @pytest.mark.parametrize("kind", ["delay", "duplicate"])
    def test_transparent_faults_do_not_change_results(self, kind):
        rank_fn, identical = make_case()
        plan = FaultPlan(seed=0, inject={(0, 1): kind}, delay=0.001)
        tr = FaultyTransport(InprocTransport(2, default_timeout=5.0), plan)
        assert identical(run_ranks(2, rank_fn, transport=tr))
        assert [e.kind for e in plan.events] == [kind]

    def test_rank_kill_is_permanent_and_attributed(self):
        rank_fn, _ = make_case()
        plan = FaultPlan(seed=0, kill_at={1: 3})
        tr = FaultyTransport(InprocTransport(2, default_timeout=0.3), plan)
        with pytest.raises(RankKilledError) as exc_info:
            run_ranks(2, rank_fn, transport=tr)
        exc = exc_info.value
        assert not is_transient(exc)
        assert exc.failed_rank == 1
        assert "killed by fault plan" in str(exc)


class TestSupervisedRecovery:
    def _factory(self, plan, timeout=0.5):
        def factory(attempt):
            return FaultyTransport(InprocTransport(2, default_timeout=timeout), plan)
        return factory

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_single_fault_recovers_bit_identical(self, kind):
        rank_fn, identical = make_case()
        plan = FaultPlan(seed=0, inject={(0, 1): kind}, delay=0.001)
        res = run_ranks_supervised(
            2, rank_fn, transport_factory=self._factory(plan),
            policy=RetryPolicy(max_retries=2, backoff_base=0.0),
        )
        assert identical(res.results)
        assert [e.kind for e in plan.events] == [kind]
        if kind in ("drop", "corrupt"):
            assert res.attempts == 2 and len(res.reports) == 1
            assert res.reports[0].transient
        else:
            assert res.attempts == 1 and not res.reports

    def test_permanent_fault_crashes_with_report(self):
        rank_fn, _ = make_case()
        plan = FaultPlan(seed=0, kill_at={1: 3})
        with pytest.raises(RankKilledError) as exc_info:
            run_ranks_supervised(
                2, rank_fn, transport_factory=self._factory(plan, timeout=0.3),
                policy=RetryPolicy(max_retries=3, backoff_base=0.0),
            )
        report = exc_info.value.crash_report
        assert report.failed_rank == 1
        assert report.error_type == "RankKilledError"
        assert not report.transient
        assert report.fault_events  # the kill is in the report
        assert "RankKilledError" in report.format()

    def test_retry_budget_exhaustion_propagates(self):
        rank_fn, _ = make_case()
        # every send drops: each attempt times out, the budget runs dry
        plan = FaultPlan(seed=0, p_drop=1.0)
        with pytest.raises(HaloTimeoutError):
            run_ranks_supervised(
                2, rank_fn, transport_factory=self._factory(plan, timeout=0.2),
                policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            )


class TestTagCrossCheck:
    """The transport mirrors the schedule's tag encoding (layering keeps
    it from importing core); the mirror must never drift."""

    def test_decode_halo_tag_inverts_message_tag(self):
        from repro.core.schedule import decode_message_tag, message_tag
        from repro.transport.errors import decode_halo_tag

        for seq in (0, 1, 7, 300):
            for dim in (0, 1, 2):
                for step in (+1, -1):
                    tag = message_tag(seq, dim, step)
                    assert decode_halo_tag(tag) == (seq, dim, step)
                    assert decode_message_tag(tag) == (seq, dim, step)

    def test_tag_bases_match_reserved_spaces(self):
        from repro.transport.errors import (
            COLL_TAG_BASE,
            REDIST_TAG_BASE,
            describe_tag,
        )
        import inspect

        from repro.grid import redistribute as redistribute_fn

        sig = inspect.signature(redistribute_fn)
        assert sig.parameters["tag_base"].default == REDIST_TAG_BASE
        assert "collective" in describe_tag(COLL_TAG_BASE + 3)
        assert "redistribution" in describe_tag(REDIST_TAG_BASE + 1)
        assert "halo" in describe_tag(13)
