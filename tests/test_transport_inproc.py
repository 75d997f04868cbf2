"""Tests for the in-process functional transport."""

import pathlib
import re
import threading
import time

import numpy as np
import pytest

from repro.transport import (
    FaultPlan,
    FaultyTransport,
    InprocTransport,
    TransportError,
    run_ranks,
)
from repro.transport.inproc import GroupEndpoint

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestBasics:
    def test_send_recv_roundtrip(self):
        def fn(ep):
            if ep.rank == 0:
                ep.send(1, np.arange(10.0), tag=5)
                return None
            return ep.recv(src=0, tag=5)

        results = run_ranks(2, fn)
        np.testing.assert_array_equal(results[1], np.arange(10.0))

    def test_payload_is_copied(self):
        """Mutating the source array after isend must not corrupt the message."""
        mutated = threading.Barrier(2, timeout=60)

        def fn(ep):
            if ep.rank == 0:
                a = np.ones(4)
                ep.isend(1, a, tag=0)
                a[:] = -1.0
                mutated.wait()
                return None
            mutated.wait()
            return ep.recv(src=0, tag=0)

        results = run_ranks(2, fn)
        np.testing.assert_array_equal(results[1], np.ones(4))

    def test_noncontiguous_payload_handled(self):
        def fn(ep):
            if ep.rank == 0:
                a = np.arange(16.0).reshape(4, 4)
                ep.send(1, a[:, 1], tag=0)  # strided view
                return None
            return ep.recv(src=0, tag=0)

        results = run_ranks(2, fn)
        np.testing.assert_array_equal(results[1], [1.0, 5.0, 9.0, 13.0])

    def test_tag_matching(self):
        def fn(ep):
            if ep.rank == 0:
                ep.send(1, np.array([1.0]), tag=1)
                ep.send(1, np.array([2.0]), tag=2)
                return None
            second = ep.recv(src=0, tag=2)
            first = ep.recv(src=0, tag=1)
            return (first[0], second[0])

        results = run_ranks(2, fn)
        assert results[1] == (1.0, 2.0)

    def test_fifo_per_source_tag(self):
        def fn(ep):
            if ep.rank == 0:
                for i in range(5):
                    ep.send(1, np.array([float(i)]), tag=0)
                return None
            return [ep.recv(src=0, tag=0)[0] for _ in range(5)]

        assert run_ranks(2, fn)[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_irecv_waitall(self):
        def fn(ep):
            if ep.rank == 0:
                handles = [ep.isend(1, np.full(3, float(t)), tag=t) for t in range(4)]
                assert [h.wait() for h in handles] == [None] * 4
                return None
            handles = [ep.irecv(src=0, tag=t) for t in range(4)]
            payloads = [h.wait() for h in handles]
            return [p[0] for p in payloads]

        assert run_ranks(2, fn)[1] == [0.0, 1.0, 2.0, 3.0]

    def test_recv_timeout_is_loud(self):
        def fn(ep):
            if ep.rank == 1:
                with pytest.raises(TransportError, match="timed out"):
                    ep.recv(src=0, tag=9, timeout=0.05)

        run_ranks(2, fn)

    def test_rank_error_propagates(self):
        def fn(ep):
            if ep.rank == 1:
                raise ValueError("intentional")
            return ep.rank

        with pytest.raises(TransportError, match="rank 1 failed") as info:
            run_ranks(2, fn)
        assert info.value.failed_rank == 1
        assert isinstance(info.value.__cause__, ValueError)

    def test_invalid_dst(self):
        def fn(ep):
            if ep.rank == 0:
                with pytest.raises(ValueError):
                    ep.isend(5, np.zeros(1))

        run_ranks(2, fn)

    def test_stats_accounting(self):
        tr = InprocTransport(2)

        def fn(ep):
            if ep.rank == 0:
                ep.send(1, np.zeros(100), tag=0)  # 800 bytes
            else:
                ep.recv(src=0, tag=0)

        run_ranks(2, fn, transport=tr)
        assert tr.stats[0].messages == 1
        assert tr.stats[0].bytes == 800
        assert tr.stats[1].messages == 0

    def test_stats_and_registry_are_the_same_counters(self):
        """TransportStats is a *view* over the registry, not a copy.

        The read-only attributes (``stats[r].messages``) and the
        registry counters (``transport_messages_total{rank=r}``) must
        report identical numbers because they are the same instrument.
        """
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        tr = InprocTransport(2, metrics=reg)

        def fn(ep):
            if ep.rank == 0:
                ep.send(1, np.zeros(50), tag=0)  # 400 bytes
            else:
                ep.recv(src=0, tag=0)

        run_ranks(2, fn, transport=tr)
        assert tr.stats[0].messages == 1
        assert tr.stats[0].bytes == 400
        assert reg.value("transport_messages_total", rank=0) == 1
        assert reg.value("transport_bytes_total", rank=0) == 400
        assert reg.value("transport_messages_total", rank=1) == 0
        # shared identity: bumping the registry counter is visible
        # through the stats view immediately
        reg.counter("transport_messages_total", rank=0).inc()
        assert tr.stats[0].messages == 2
        assert tr.stats[0].bytes == 400
        assert "messages=2" in repr(tr.stats[0])

    def test_endpoint_bounds(self):
        tr = InprocTransport(2)
        with pytest.raises(ValueError):
            tr.endpoint(2)

    def test_transport_size_mismatch(self):
        with pytest.raises(ValueError):
            run_ranks(3, lambda ep: None, transport=InprocTransport(2))


class TestConcurrency:
    def test_many_ranks_ring_exchange(self):
        """Each rank sends to its right neighbour and receives from its left."""
        n = 8

        def fn(ep):
            right = (ep.rank + 1) % n
            left = (ep.rank - 1) % n
            ep.isend(right, np.array([float(ep.rank)]), tag=0)
            got = ep.recv(src=left, tag=0)
            return got[0]

        results = run_ranks(n, fn)
        assert results == [float((r - 1) % n) for r in range(n)]

    def test_all_to_all(self):
        n = 4

        def fn(ep):
            for dst in range(n):
                if dst != ep.rank:
                    ep.isend(dst, np.array([float(ep.rank)]), tag=ep.rank)
            got = sorted(
                ep.recv(src=src, tag=src)[0] for src in range(n) if src != ep.rank
            )
            return got

        results = run_ranks(n, fn)
        for rank, got in enumerate(results):
            assert got == sorted(float(s) for s in range(n) if s != rank)


class TestCopyModes:
    def test_copy_true_snapshots_once(self):
        """copy=True hands the receiver an independent C-contiguous
        snapshot, even for strided views."""
        mutated = threading.Barrier(2, timeout=60)

        def fn(ep):
            if ep.rank == 0:
                a = np.arange(16.0).reshape(4, 4)
                ep.isend(1, a[:, 1], tag=0)  # strided view, default copy
                a[:] = -1.0
                mutated.wait()
                return None
            mutated.wait()
            got = ep.recv(src=0, tag=0)
            assert got.flags.c_contiguous
            return got

        results = run_ranks(2, fn)
        np.testing.assert_array_equal(results[1], [1.0, 5.0, 9.0, 13.0])

    def test_copy_false_shares_the_buffer(self):
        """copy=False hands the receiver the sender's array object —
        this is the zero-copy engine fast path."""
        sent = []

        def fn(ep):
            if ep.rank == 0:
                a = np.arange(6.0)
                sent.append(a)
                ep.isend(1, a, tag=0, copy=False)
                return None
            return ep.recv(src=0, tag=0)

        results = run_ranks(2, fn)
        assert results[1] is sent[0]

    def test_copy_false_rejects_noncontiguous(self):
        def fn(ep):
            if ep.rank == 0:
                a = np.arange(16.0).reshape(4, 4)
                with pytest.raises(ValueError, match="contiguous"):
                    ep.isend(1, a[:, 1], tag=0, copy=False)

        run_ranks(2, fn)

    def test_inproc_advertises_zero_copy(self):
        tr = InprocTransport(1)
        assert tr.endpoint(0).zero_copy_sends is True


#: per-rank contributions whose float sum depends on the order of addition
ORDER_SENSITIVE = {
    3: [1e16, 1.0, -1e16],  # rank order 0.0, reversed arrival 1.0
    4: [1.0, 1.0, 1e16, -1e16],  # rank order 2.0, reversed arrival 1.0
}


def _rank_order_sum(values):
    total = values[0]
    for v in values[1:]:
        total += v
    return total


def _late_allreduce(ep, values):
    """Allreduce ``values[ep.rank]``; higher ranks contribute *first*."""
    if ep.rank:
        time.sleep(0.03 * (ep.size - ep.rank))
    return ep.allreduce(np.array([values[ep.rank]]))[0]


class TestOrderedAllreduce:
    """The root adds contributions in rank order whatever order they
    arrive in, so every endpoint's allreduce is bitwise reproducible."""

    @pytest.mark.parametrize("n", sorted(ORDER_SENSITIVE))
    def test_plain_endpoint(self, n):
        values = ORDER_SENSITIVE[n]
        got = run_ranks(n, _late_allreduce, values)
        assert got == [_rank_order_sum(values)] * n

    @pytest.mark.parametrize("n", sorted(ORDER_SENSITIVE))
    def test_group_endpoint(self, n):
        # two concurrent groups of n ranks on one 2n-rank transport
        values = ORDER_SENSITIVE[n]

        def fn(ep):
            group = GroupEndpoint(ep, (ep.rank // n) * n, n)
            return _late_allreduce(group, values)

        assert run_ranks(2 * n, fn) == [_rank_order_sum(values)] * (2 * n)

    @pytest.mark.parametrize("n", sorted(ORDER_SENSITIVE))
    def test_faulty_endpoint(self, n):
        values = ORDER_SENSITIVE[n]
        tr = FaultyTransport(InprocTransport(n), FaultPlan(seed=0))
        got = run_ranks(n, _late_allreduce, values, transport=tr)
        assert got == [_rank_order_sum(values)] * n

    @pytest.mark.parametrize("n", sorted(ORDER_SENSITIVE))
    def test_group_over_faulty_endpoint(self, n):
        values = ORDER_SENSITIVE[n]
        tr = FaultyTransport(InprocTransport(n), FaultPlan(seed=0))

        def fn(ep):
            return _late_allreduce(GroupEndpoint(ep, 0, n), values)

        got = run_ranks(n, fn, transport=tr)
        assert got == [_rank_order_sum(values)] * n

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_message_and_op_counts(self, k):
        """A k-rank allreduce costs 2(k-1) messages; a faulty endpoint
        counts one allreduce op plus one op per send and receive."""
        inner = InprocTransport(k)
        plan = FaultPlan(seed=0)
        tr = FaultyTransport(inner, plan)
        run_ranks(k, lambda ep: ep.allreduce(float(ep.rank)), transport=tr)
        assert sum(s.messages for s in inner.stats) == 2 * (k - 1)
        assert plan.ops(0) == 1 + 2 * (k - 1)
        assert all(plan.ops(r) == 3 for r in range(1, k))
        # the per-send fault clock: the root broadcasts, the rest send once
        assert plan.next_send(0) == k - 1
        assert all(plan.next_send(r) == 1 for r in range(1, k))


class TestGroupEndpointOverFaults:
    def test_recv_decodes_and_counts(self):
        """A direct group ``recv`` goes through the wrapped endpoint's
        public ``recv``: checksummed frames decode, the op clock ticks."""
        plan = FaultPlan(seed=0)
        tr = FaultyTransport(InprocTransport(2), plan)
        payload = np.arange(6.0).reshape(2, 3)

        def fn(ep):
            group = GroupEndpoint(ep, 0, 2)
            if group.rank == 0:
                group.send(1, payload, tag=4)
                return None
            return group.recv(src=0, tag=4)

        got = run_ranks(2, fn, transport=tr)[1]
        np.testing.assert_array_equal(got, payload)
        assert plan.ops(1) == 1


#: what every endpoint offers and README's porting list names
ENDPOINT_SURFACE = {
    "rank", "size", "isend", "irecv", "recv", "send", "allreduce",
    "zero_copy_sends",
}


def _porting_section() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("## Porting the functional plane to a cluster")
    return text[start: text.index("\n## ", start + 1)]


class TestEndpointSurface:
    """The three endpoints are interchangeable: one public surface, the
    one a cluster adapter must offer."""

    @staticmethod
    def _endpoints():
        plain = InprocTransport(2).endpoint(0)
        faulty = FaultyTransport(InprocTransport(2), FaultPlan(seed=0))
        return {
            "RankEndpoint": plain,
            "GroupEndpoint": GroupEndpoint(plain, 0, 2),
            "FaultyEndpoint": faulty.endpoint(0),
        }

    def test_every_endpoint_offers_the_same_surface(self):
        for name, ep in self._endpoints().items():
            # methods, properties and class constants; ``rank`` may be
            # a plain attribute set per instance
            public = {a for a in dir(type(ep)) if not a.startswith("_")}
            assert public | {"rank"} == ENDPOINT_SURFACE, name
            assert ep.rank == 0, name

    def test_readme_porting_list_names_the_surface(self):
        section = _porting_section()
        for name in ENDPOINT_SURFACE:
            assert re.search(rf"`{name}[`(]", section), name
        assert "barrier" not in section
