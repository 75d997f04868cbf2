"""Failure injection: schedule bugs and dying ranks must fail loudly.

A distributed engine that *hangs* on misuse is a debugging nightmare; the
transport's bounded waits turn desynchronized schedules, dead peers and
mismatched parameters into immediate, attributable errors.
"""

import numpy as np
import pytest

from repro.core import DistributedStencil, HYBRID_MULTIPLE
from repro.grid import Decomposition, GridDescriptor, HaloSpec, scatter
from repro.stencil import laplacian_coefficients
from repro.transport import InprocTransport, TransportError, run_ranks


def make_engine(shape=(8, 8, 8), n_ranks=2):
    gd = GridDescriptor(shape)
    decomp = Decomposition(gd, n_ranks)
    engine = DistributedStencil(decomp, laplacian_coefficients(2, gd.spacing))
    blocks = {
        gid: scatter(gd.random(seed=gid), decomp, HaloSpec(2)) for gid in range(4)
    }
    return gd, engine, blocks


class TestScheduleDesync:
    def test_mismatched_batch_sizes_detected(self):
        """Ranks disagreeing on batch size produce mismatched tags; the
        bounded recv turns the would-be deadlock into a TransportError."""
        gd, engine, blocks = make_engine()
        tr = InprocTransport(2, default_timeout=0.3)

        def rank_fn(ep):
            mine = {gid: blocks[gid][ep.rank] for gid in blocks}
            batch = 2 if ep.rank == 0 else 4  # the bug
            return engine.apply(ep, mine, batch_size=batch)

        with pytest.raises(TransportError):
            run_ranks(2, rank_fn, transport=tr)

    def test_mismatched_grid_sets_detected(self):
        gd, engine, blocks = make_engine()
        tr = InprocTransport(2, default_timeout=0.3)

        def rank_fn(ep):
            gids = list(blocks) if ep.rank == 0 else list(blocks)[:-1]  # the bug
            mine = {gid: blocks[gid][ep.rank] for gid in gids}
            return engine.apply(ep, mine)

        with pytest.raises(TransportError):
            run_ranks(2, rank_fn, transport=tr)


class TestDyingRanks:
    def test_peer_death_before_send_times_out_receiver(self):
        tr = InprocTransport(2, default_timeout=0.3)
        outcomes = {}

        def rank_fn(ep):
            if ep.rank == 0:
                raise RuntimeError("crash before sending")
            try:
                ep.recv(src=0, tag=0)
            except TransportError as exc:
                outcomes["recv"] = str(exc)

        with pytest.raises(TransportError):
            run_ranks(2, rank_fn, transport=tr)
        assert "timed out" in outcomes["recv"]


class TestTimeoutConfiguration:
    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            InprocTransport(2, default_timeout=0.0)

    def test_explicit_timeout_overrides_default(self):
        tr = InprocTransport(2, default_timeout=60.0)

        def rank_fn(ep):
            if ep.rank == 0:
                with pytest.raises(TransportError):
                    ep.recv(src=1, tag=0, timeout=0.05)

        run_ranks(2, rank_fn, transport=tr)

    def test_error_message_names_rank_and_tag(self):
        tr = InprocTransport(1, default_timeout=0.05)
        ep = tr.endpoint(0)
        with pytest.raises(TransportError, match=r"rank 0: recv\(src=0, tag=42\)"):
            ep.recv(src=0, tag=42)


class TestFailureAttribution:
    """Failures must *name things*: ranks, messages, schedule steps."""

    def test_recv_timeout_decodes_halo_tag_meaning(self):
        from repro.core.schedule import message_tag

        tr = InprocTransport(1, default_timeout=0.05)
        ep = tr.endpoint(0)
        tag = message_tag(seq=5, dim=1, step=-1)
        with pytest.raises(
            TransportError, match=r"message is halo exchange seq 5, -y direction"
        ):
            ep.recv(src=0, tag=tag)

    def test_recv_timeout_names_collective_round(self):
        from repro.transport.errors import COLL_TAG_BASE

        tr = InprocTransport(1, default_timeout=0.05)
        with pytest.raises(TransportError, match="collective round 7"):
            tr.endpoint(0).recv(src=0, tag=COLL_TAG_BASE + 7)


class TestSeededReplay:
    """Same seed ⇒ identical fault sequence and identical crash report."""

    def _run_once(self, monkeypatch, seed):
        from repro.transport import FaultPlan
        from tests.helpers import run_stencil_scenario

        # ~16 transport ops per rank per attempt; op 10 is mid-schedule
        plan = FaultPlan(
            seed=seed, p_drop=0.03, p_corrupt=0.03, p_duplicate=0.05,
            p_delay=0.05, delay=0.0005, kill_at={1: 10},
        )
        outcome, reports, _ = run_stencil_scenario(
            monkeypatch, plan, max_retries=3, timeout=0.3
        )
        assert outcome.outcome == "crashed"
        return plan.events, reports[-1]

    def test_same_seed_replays_identically(self, monkeypatch):
        events_a, crash_a = self._run_once(monkeypatch, seed=3)
        events_b, crash_b = self._run_once(monkeypatch, seed=3)
        assert events_a == events_b  # bit-identical fault sequence
        assert crash_a.failed_rank == crash_b.failed_rank == 1
        assert crash_a.error_type == crash_b.error_type == "RankKilledError"
        assert crash_a.fault_events == crash_b.fault_events
        assert crash_a.format() == crash_b.format()

    def test_different_seed_diverges(self):
        from repro.transport import FaultPlan

        def stream(seed):
            plan = FaultPlan(
                seed=seed, p_drop=0.03, p_corrupt=0.03, p_duplicate=0.05,
                p_delay=0.05,
            )
            return [plan.decide(r, i) for r in (0, 1) for i in range(200)]

        assert stream(3) != stream(4)
