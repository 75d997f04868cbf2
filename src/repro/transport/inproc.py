"""In-process threaded rank transport with MPI-like non-blocking semantics.

Design notes
------------

* **Eager buffered sends.**  ``isend`` copies the payload and deposits it
  in the destination's mailbox immediately; the send handle is complete at
  once.  This mirrors MPI's buffered mode: no schedule can deadlock on
  send order, which is the right property for a correctness oracle (the
  *timing* consequences of schedules live in the performance plane).
* **(source, tag) matching** with FIFO non-overtaking per (source, tag)
  pair, like MPI — receivers block on a condition variable until a match
  arrives.
* **Instrumentation.**  The transport counts messages and bytes per rank
  (:class:`TransportStats`, a view over :mod:`repro.obs.metrics`
  counters when a registry is passed); tests use this to verify that
  e.g. batching really reduces the message count by the batch factor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.transport.errors import (
    COLL_TAG_BASE,
    HaloTimeoutError,
    PeerDeadError,
    TransportError,
    describe_tag,
)
from repro.util.validation import check_positive_int

#: wildcard markers, mirroring repro.smpi.datatypes
ANY_SOURCE = -1
ANY_TAG = -1

_DEFAULT_TIMEOUT = 60.0  # a stuck functional test fails loudly, not forever


@dataclass
class _Mail:
    src: int
    tag: int
    payload: np.ndarray


@dataclass
class SendHandle:
    """Completed-at-once handle for an eager send."""

    nbytes: int

    def wait(self, timeout: float = _DEFAULT_TIMEOUT) -> None:
        return None

    @property
    def complete(self) -> bool:
        return True


class RecvHandle:
    """Handle for a posted receive; ``wait()`` returns the payload."""

    def __init__(self, endpoint: "RankEndpoint", src: int, tag: int):
        self._endpoint = endpoint
        self.src = src
        self.tag = tag
        self._payload: Optional[np.ndarray] = None
        self._done = False

    @property
    def complete(self) -> bool:
        return self._done

    def wait(self, timeout: Optional[float] = None) -> np.ndarray:
        if self._done:
            return self._payload  # type: ignore[return-value]
        self._payload = self._endpoint._take(self.src, self.tag, timeout)
        self._done = True
        return self._payload


class TransportStats:
    """Per-rank message accounting — a thin view over metrics counters.

    Historically a plain ``@dataclass`` of two ints, now backed by
    :class:`repro.obs.metrics.Counter` so every transport reports through
    the one registry.  Two modes:

    * standalone (``TransportStats()``) — owns private counters; behaves
      exactly like the old dataclass, including ``st.messages == 0``.
    * registry-backed (``TransportStats(registry=reg, rank=r)``) — views
      the shared ``transport_messages_total`` / ``transport_bytes_total``
      counters labeled with the rank, so a registry snapshot and this
      object report the *same* numbers (pinned by test).

    Increment through :meth:`record_message`; ``.messages``/``.bytes``
    are read-only views of the counters.
    """

    __slots__ = ("_messages", "_bytes")

    def __init__(
        self,
        messages: int = 0,
        bytes: int = 0,
        registry=None,
        rank: Optional[int] = None,
    ):
        from repro.obs.metrics import Counter

        if registry is not None:
            labels = {} if rank is None else {"rank": rank}
            self._messages = registry.counter("transport_messages_total", **labels)
            self._bytes = registry.counter("transport_bytes_total", **labels)
        else:
            self._messages = Counter("transport_messages_total")
            self._bytes = Counter("transport_bytes_total")
        if messages:
            self._messages.inc(messages)
        if bytes:
            self._bytes.inc(bytes)

    def record_message(self, nbytes: int) -> None:
        """Account one sent message of ``nbytes`` payload bytes."""
        self._messages.inc(1)
        self._bytes.inc(nbytes)

    @property
    def messages(self) -> int:
        return int(self._messages.value)

    @property
    def bytes(self) -> int:
        return int(self._bytes.value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TransportStats):
            return (self.messages, self.bytes) == (other.messages, other.bytes)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TransportStats(messages={self.messages}, bytes={self.bytes})"


class AttributableBarrier:
    """A barrier that knows *who* arrived when it fails.

    ``threading.Barrier`` reports only "broken"; at any useful rank count
    the first question is which rank is missing.  This barrier tracks the
    arrival set per generation, so a timeout or abort names the arrived
    and missing ranks — the attribution the failure-injection suite
    asserts on.
    """

    def __init__(self, size: int):
        self.size = size
        self._cond = threading.Condition()
        self._arrived: set[int] = set()
        self._generation = 0
        self._broken = False
        self._dead: list[int] = []

    def _failure_message(self, rank: int) -> str:
        arrived = sorted(self._arrived)
        missing = sorted(set(range(self.size)) - self._arrived)
        msg = (
            f"rank {rank}: barrier failed — arrived ranks {arrived}, "
            f"missing ranks {missing}"
        )
        if self._dead:
            msg += f" (known dead: {sorted(self._dead)})"
        return msg

    def wait(self, rank: int, timeout: float) -> None:
        with self._cond:
            if self._broken:
                raise PeerDeadError(self._failure_message(rank))
            gen = self._generation
            self._arrived.add(rank)
            if len(self._arrived) == self.size:
                self._generation += 1
                self._arrived = set()
                self._cond.notify_all()
                return
            ok = self._cond.wait_for(
                lambda: self._generation != gen or self._broken, timeout=timeout
            )
            if self._broken:
                raise PeerDeadError(self._failure_message(rank))
            if not ok:
                message = self._failure_message(rank) + f" after {timeout}s"
                self._broken = True
                self._cond.notify_all()
                raise HaloTimeoutError(message)

    def abort(self, dead_rank: Optional[int] = None) -> None:
        """Break the barrier (a rank died); wakes every waiter."""
        with self._cond:
            if dead_rank is not None:
                self._dead.append(dead_rank)
            self._broken = True
            self._cond.notify_all()


class InprocTransport:
    """A set of ``size`` rank endpoints sharing mailboxes in one process.

    ``default_timeout`` bounds every blocking wait (receives, barriers):
    a schedule bug — ranks disagreeing on batch sizes, a died peer — fails
    loudly with :class:`TransportError` instead of hanging the test run.
    """

    def __init__(
        self,
        size: int,
        default_timeout: float = _DEFAULT_TIMEOUT,
        metrics=None,
    ):
        check_positive_int(size, "size")
        if not default_timeout > 0:
            raise ValueError(f"default_timeout must be > 0, got {default_timeout}")
        self.size = size
        self.default_timeout = default_timeout
        #: optional repro.obs.metrics.MetricsRegistry; when given, per-rank
        #: stats are views over its transport_{messages,bytes}_total counters
        self.metrics = metrics
        self._boxes: list[list[_Mail]] = [[] for _ in range(size)]
        self._conds = [threading.Condition() for _ in range(size)]
        self.stats = [
            TransportStats(registry=metrics, rank=r) for r in range(size)
        ]
        self._barrier = AttributableBarrier(size)

    def endpoint(self, rank: int) -> "RankEndpoint":
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside 0..{self.size - 1}")
        return RankEndpoint(self, rank)

    def abort(self, dead_rank: Optional[int] = None) -> None:
        """Unblock barrier waiters after a rank death (see ``run_ranks``)."""
        self._barrier.abort(dead_rank)


class RankEndpoint:
    """One rank's view of the transport (thread-safe)."""

    #: ``isend(copy=False)`` hands the payload to the receiver by
    #: reference; the *receiver* owns (and may recycle) the buffer after
    #: consuming it.  Senders over transports without this property must
    #: keep or reclaim their buffers themselves.
    zero_copy_sends = True

    def __init__(self, transport: InprocTransport, rank: int):
        self.transport = transport
        self.rank = rank

    @property
    def size(self) -> int:
        return self.transport.size

    # -- sending ----------------------------------------------------------
    def isend(
        self, dst: int, payload: np.ndarray, tag: int = 0, copy: bool = True
    ) -> SendHandle:
        """Eager non-blocking send of an array.

        By default the payload is snapshotted with a *single* contiguous
        copy (MPI buffered-send semantics; the sender may reuse the array
        immediately).  With ``copy=False`` the payload is handed to the
        destination by reference — the zero-copy fast path for buffers the
        sender exclusively owns (e.g. borrowed from a
        :class:`repro.core.workspace.Workspace`) and will not touch until
        the receiver has consumed them.  ``copy=False`` requires a
        C-contiguous payload, so the receiver sees the same layout either
        way.
        """
        tr = self.transport
        if not 0 <= dst < tr.size:
            raise ValueError(f"dst {dst} outside 0..{tr.size - 1}")
        if copy:
            # One pass even for non-contiguous payloads (ascontiguousarray
            # followed by .copy() would copy those twice).
            data = np.array(payload, order="C", copy=True)
        else:
            if not payload.flags.c_contiguous:
                raise ValueError(
                    "copy=False requires a C-contiguous payload"
                )
            data = payload
        cond = tr._conds[dst]
        with cond:
            tr._boxes[dst].append(_Mail(src=self.rank, tag=tag, payload=data))
            cond.notify_all()
        tr.stats[self.rank].record_message(data.nbytes)
        return SendHandle(nbytes=data.nbytes)

    def send(self, dst: int, payload: np.ndarray, tag: int = 0) -> None:
        """Blocking send (trivially complete under eager semantics)."""
        self.isend(dst, payload, tag).wait()

    # -- receiving -----------------------------------------------------------
    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvHandle:
        """Post a receive; completion happens inside ``wait()``."""
        return RecvHandle(self, src, tag)

    def recv(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking receive; returns the payload array."""
        return self._take(src, tag, timeout)

    def _take(self, src: int, tag: int, timeout: Optional[float]) -> np.ndarray:
        tr = self.transport
        timeout = tr.default_timeout if timeout is None else timeout
        cond = tr._conds[self.rank]
        box = tr._boxes[self.rank]

        def find() -> Optional[int]:
            for i, mail in enumerate(box):
                if src in (ANY_SOURCE, mail.src) and tag in (ANY_TAG, mail.tag):
                    return i
            return None

        with cond:
            deadline = timeout
            idx = find()
            if idx is None:
                ok = cond.wait_for(lambda: find() is not None, timeout=deadline)
                if not ok:
                    raise HaloTimeoutError(
                        f"rank {self.rank}: recv(src={src}, tag={tag}) timed out "
                        f"after {timeout}s — message is {describe_tag(tag)}; "
                        f"lost message, dead peer, or schedule deadlock?"
                    )
                idx = find()
            assert idx is not None
            return box.pop(idx).payload

    # -- synchronization --------------------------------------------------------
    def waitall(self, handles: Sequence[SendHandle | RecvHandle]) -> list[Any]:
        """Complete every handle; returns recv payloads (None for sends)."""
        return [h.wait() for h in handles]

    def barrier(self, timeout: Optional[float] = None) -> None:
        """Block until all ranks arrive.

        On failure the error names the arrived and the missing ranks
        (an :class:`AttributableBarrier` underneath).
        """
        timeout = self.transport.default_timeout if timeout is None else timeout
        self.transport._barrier.wait(self.rank, timeout=timeout)

    # -- collectives ------------------------------------------------------------
    def allreduce(self, value: np.ndarray | float, round_id: int = 0) -> np.ndarray:
        """Sum-allreduce over all ranks; returns the reduced array.

        The functional twin of
        :meth:`repro.smpi.comm.RankContext.allreduce` (see
        :func:`_allreduce`).
        """
        return _allreduce(self, value, round_id)


class GroupEndpoint:
    """A contiguous sub-communicator view over one rank's endpoint.

    The band-parallel SCF splits the ``P`` transport ranks into ``nb``
    groups of ``P/nb``; inside a group the FD engine and the Poisson
    solver must see an ordinary ``size``-rank communicator whose rank 0
    is the group's first global rank.  This wrapper translates ranks by
    a fixed ``base`` offset and otherwise delegates — the engine drives
    it exactly like a :class:`RankEndpoint` (same ``isend``/``irecv``/
    ``waitall``/``allreduce`` surface, same zero-copy contract).

    Group collectives offset their ``round_id`` into a reserved band so
    a group rooted at global rank 0 can never capture another group's
    contribution to a concurrently running *global* collective.
    """

    #: round_id offset separating group collectives from global ones
    _GROUP_COLL_OFFSET = 1 << 16

    def __init__(self, endpoint: RankEndpoint, base: int, size: int):
        if size < 1:
            raise ValueError(f"group size must be >= 1, got {size}")
        if not 0 <= base <= endpoint.size - size:
            raise ValueError(
                f"group [{base}, {base + size}) outside the "
                f"{endpoint.size}-rank transport"
            )
        if not base <= endpoint.rank < base + size:
            raise ValueError(
                f"rank {endpoint.rank} is not inside group "
                f"[{base}, {base + size})"
            )
        self.endpoint = endpoint
        self.base = base
        self._size = size

    @property
    def zero_copy_sends(self) -> bool:
        return getattr(self.endpoint, "zero_copy_sends", False)

    @property
    def rank(self) -> int:
        return self.endpoint.rank - self.base

    @property
    def size(self) -> int:
        return self._size

    def _global(self, rank: int, what: str) -> int:
        if not 0 <= rank < self._size:
            raise ValueError(
                f"{what} {rank} outside group 0..{self._size - 1}"
            )
        return rank + self.base

    def isend(
        self, dst: int, payload: np.ndarray, tag: int = 0, copy: bool = True
    ) -> SendHandle:
        return self.endpoint.isend(
            self._global(dst, "dst"), payload, tag=tag, copy=copy
        )

    def send(self, dst: int, payload: np.ndarray, tag: int = 0) -> None:
        self.isend(dst, payload, tag).wait()

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvHandle:
        if src != ANY_SOURCE:
            src = self._global(src, "src")
        return self.endpoint.irecv(src=src, tag=tag)

    def recv(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        if src != ANY_SOURCE:
            src = self._global(src, "src")
        return self.endpoint.recv(src, tag, timeout=timeout)

    def waitall(self, handles: Sequence[SendHandle | RecvHandle]) -> list[Any]:
        return self.endpoint.waitall(handles)

    def allreduce(self, value: np.ndarray | float, round_id: int = 0) -> np.ndarray:
        """Sum-allreduce over the group's ranks only."""
        return _allreduce(self, value, self._GROUP_COLL_OFFSET + round_id)


def _allreduce(ep: Any, value: np.ndarray | float, round_id: int) -> np.ndarray:
    """Sum-allreduce over ``ep``'s ranks: gather to rank 0, then broadcast.

    The one body behind every endpoint's ``allreduce``.  It runs through
    ``ep``'s own ``isend``/``recv``, so a wrapper's rank translation,
    fault injection, checksums and op clocks apply to collective traffic
    as to halo traffic; a ``size``-rank reduction costs ``2(size-1)``
    messages.  The root adds the contributions in rank order, whatever
    order they arrive in, so the sum is bitwise reproducible.  Concurrent
    collectives must use distinct ``round_id`` values; a *sequence* of
    allreduces on the same id is safe (FIFO matching).
    """
    payload = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if ep.size == 1:
        return payload.copy()
    tag = COLL_TAG_BASE + round_id
    if ep.rank == 0:
        total = payload.copy()
        for src in range(1, ep.size):
            total += ep.recv(src=src, tag=tag)
        for dst in range(1, ep.size):
            ep.isend(dst, total, tag=tag + 1)
        return total
    ep.isend(0, payload, tag=tag)
    return ep.recv(src=0, tag=tag + 1)


def run_ranks(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    transport: Optional[InprocTransport] = None,
    supervisor: "Any" = None,
) -> list[Any]:
    """Run ``fn(endpoint, *args)`` on ``size`` rank threads; join and return.

    Exceptions in any rank are re-raised in the caller (after all threads
    have been joined), with the failing rank identified.  A
    :class:`~repro.transport.errors.TransportError` subclass is re-raised
    as the *same type* (with ``failed_rank`` and any attached schedule
    step preserved), so callers can dispatch on the taxonomy.

    ``supervisor`` switches to supervised execution: pass a
    :class:`repro.transport.supervisor.RetryPolicy` (the whole invocation
    is retried with exponential backoff on transient failures, and
    permanent ones produce a crash report) — see
    :func:`repro.transport.supervisor.run_ranks_supervised`, to which
    this delegates.
    """
    if supervisor is not None:
        from repro.transport.supervisor import run_ranks_supervised

        return run_ranks_supervised(
            size, fn, *args, transport=transport, policy=supervisor
        ).results
    tr = transport if transport is not None else InprocTransport(size)
    if tr.size != size:
        raise ValueError(f"transport size {tr.size} != requested size {size}")
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []

    def runner(rank: int) -> None:
        try:
            results[rank] = fn(tr.endpoint(rank), *args)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors.append((rank, exc))
            # Unblock peers stuck in the barrier so the join terminates.
            tr.abort(dead_rank=rank)

    threads = [
        threading.Thread(target=runner, args=(rank,), name=f"rank{rank}")
        for rank in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        # The first appended error is the root cause: peers only fail
        # with PeerDeadError *after* the abort it triggered.
        primary = [e for e in errors if not isinstance(e[1], PeerDeadError)]
        rank, exc = (primary or errors)[0]
        # Preserve the taxonomy: a typed transport failure surfaces as the
        # same type, step attribution and transience flags intact.
        cls = type(exc) if isinstance(exc, TransportError) else TransportError
        wrapped = cls(f"rank {rank} failed: {exc!r}")
        if isinstance(exc, TransportError):
            wrapped.step_info = exc.step_info
        wrapped.failed_rank = rank
        wrapped.peer_errors = tuple(errors)
        raise wrapped from exc
    return results
