"""Deterministic fault injection for any transport.

At 16384 cores, lost messages, corrupted payloads and dead ranks are
operating conditions, not anomalies.  This module lets the test suite
(and the ``repro chaos`` CLI) subject the *real* engine to those
conditions deterministically:

* :class:`FaultPlan` — a seeded, replayable schedule of faults.  Every
  decision is a pure function of ``(seed, rank, op_index)`` via per-rank
  counter-based RNG streams, so the injected fault sequence is identical
  across runs regardless of thread interleaving — the property the
  seeded-replay tests pin down.
* :class:`FaultyEndpoint` — wraps any ``RankEndpoint``-compatible
  endpoint and injects message *delay*, *drop*, *duplication*, payload
  *corruption*, and *rank kill at operation N*.
* Checksum framing — payloads are wrapped in a checksummed frame
  (CRC32 + dtype/shape header), so corruption is caught at ``recv`` as a
  typed :class:`~repro.transport.errors.CorruptPayloadError` instead of
  silently wrong numerics.

Faults are **one-shot**: a fault fires at most once per plan, so a
retry of the same invocation on a fresh transport sharing the plan
models a *transient* fault clearing — while a fresh plan with the same seed
replays the identical sequence.
"""

from __future__ import annotations

import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.transport.errors import CorruptPayloadError, RankKilledError
from repro.transport.inproc import TransportStats, _allreduce

#: the injectable fault kinds, in decision order
FAULT_KINDS = ("delay", "drop", "duplicate", "corrupt")

_MAGIC = b"RF1\0"
_HEADER = struct.Struct("<4sI8sB")  # magic, crc32, dtype str, ndim
_DIM = struct.Struct("<q")


# -- checksummed payload framing ----------------------------------------------
def encode_payload(payload: np.ndarray) -> np.ndarray:
    """Wrap an array in a checksummed uint8 frame (CRC32 of the body)."""
    src = np.asarray(payload)  # ascontiguousarray would promote 0-d to 1-d
    arr = np.ascontiguousarray(src)
    body = arr.view(np.uint8).reshape(-1) if arr.size else np.empty(0, np.uint8)
    dt = arr.dtype.str.encode("ascii")
    if len(dt) > 8:
        raise ValueError(f"dtype string {dt!r} too long to frame")
    crc = zlib.crc32(body.tobytes())
    header = _HEADER.pack(_MAGIC, crc, dt.ljust(8, b" "), src.ndim)
    dims = b"".join(_DIM.pack(d) for d in src.shape)
    frame = np.empty(len(header) + len(dims) + body.nbytes, dtype=np.uint8)
    frame[: len(header)] = np.frombuffer(header, np.uint8)
    frame[len(header): len(header) + len(dims)] = np.frombuffer(dims, np.uint8)
    frame[len(header) + len(dims):] = body
    return frame


def decode_payload(frame: np.ndarray) -> np.ndarray:
    """Unwrap a checksummed frame; raises ``CorruptPayloadError`` on
    checksum mismatch or malformed header."""
    raw = np.ascontiguousarray(frame, dtype=np.uint8).tobytes()
    if len(raw) < _HEADER.size:
        raise CorruptPayloadError(
            f"framed payload too short ({len(raw)} bytes)"
        )
    magic, crc, dt, ndim = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CorruptPayloadError(
            f"framed payload has bad magic {magic!r} (checksum mode mismatch?)"
        )
    offset = _HEADER.size
    shape = tuple(
        _DIM.unpack_from(raw, offset + i * _DIM.size)[0] for i in range(ndim)
    )
    offset += ndim * _DIM.size
    body = raw[offset:]
    actual = zlib.crc32(body)
    if actual != crc:
        raise CorruptPayloadError(
            f"payload checksum mismatch: header says {crc:#010x}, "
            f"body hashes to {actual:#010x} — message corrupted in flight"
        )
    dtype = np.dtype(dt.rstrip(b" ").decode("ascii"))
    return np.frombuffer(body, dtype=dtype).reshape(shape).copy()


# -- the fault plan -----------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for replay comparison and crash reports."""

    rank: int
    op_index: int
    kind: str
    op: str  # which endpoint call ("isend", "recv", ...)


class FaultPlan:
    """A seeded, replayable schedule of transport faults.

    ``p_delay``/``p_drop``/``p_duplicate``/``p_corrupt`` are per-*send*
    probabilities; ``kill_at`` maps a rank to the transport-operation
    index at which it dies (sends, receives and allreduces all count).
    Decisions are drawn from per-rank
    ``numpy.random.Philox``-free counter streams: fault ``k`` of rank
    ``r`` depends only on ``(seed, r, k)``, never on thread timing.

    The timing knobs (``delay``, ``retransmit_timeout``,
    ``restart_time``) are consumed by the functional plane (real sleeps)
    and the DES runner (simulated seconds) respectively.
    """

    def __init__(
        self,
        seed: int,
        p_delay: float = 0.0,
        p_drop: float = 0.0,
        p_duplicate: float = 0.0,
        p_corrupt: float = 0.0,
        kill_at: Optional[dict[int, int]] = None,
        inject: Optional[dict[tuple[int, int], str]] = None,
        delay: float = 0.01,
        retransmit_timeout: float = 1e-4,
        restart_time: float = 1.0,
        metrics=None,
    ):
        for name in ("p_delay", "p_drop", "p_duplicate", "p_corrupt"):
            p = locals()[name]
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if p_delay + p_drop + p_duplicate + p_corrupt > 1.0 + 1e-12:
            raise ValueError("fault probabilities must sum to <= 1")
        for key, kind in (inject or {}).items():
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"inject[{key}] must be one of {FAULT_KINDS}, got {kind!r}"
                )
        self.seed = seed
        self.probabilities = (p_delay, p_drop, p_duplicate, p_corrupt)
        self.kill_at = dict(kill_at or {})
        self.inject = dict(inject or {})
        self.delay = delay
        self.retransmit_timeout = retransmit_timeout
        self.restart_time = restart_time
        from repro.obs.metrics import resolve_registry

        #: injected faults also count into ``faults_injected_total{kind=}``
        #: on this registry (the null registry by default)
        self.metrics = resolve_registry(metrics)
        self._lock = threading.Lock()
        self._fired: set[tuple[int, int, str]] = set()
        self._op_counts: dict[int, int] = {}
        self._send_counts: dict[int, int] = {}
        self._events: dict[int, list[FaultEvent]] = {}

    def replica(self) -> "FaultPlan":
        """A fresh plan with identical parameters (replays from scratch)."""
        p_delay, p_drop, p_duplicate, p_corrupt = self.probabilities
        return FaultPlan(
            self.seed,
            p_delay=p_delay,
            p_drop=p_drop,
            p_duplicate=p_duplicate,
            p_corrupt=p_corrupt,
            kill_at=self.kill_at,
            inject=self.inject,
            delay=self.delay,
            retransmit_timeout=self.retransmit_timeout,
            restart_time=self.restart_time,
            metrics=self.metrics if self.metrics.enabled else None,
        )

    # -- deterministic decisions ------------------------------------------
    def decide(self, rank: int, op_index: int) -> Optional[str]:
        """The fault kind planned for operation ``op_index`` of ``rank``.

        Pure: depends only on (seed, rank, op_index) and the explicit
        ``inject`` table (which takes precedence — the chaos suite pins
        single faults to exact operations with it).  ``None`` means the
        operation proceeds cleanly.
        """
        explicit = self.inject.get((rank, op_index))
        if explicit is not None:
            return explicit
        u = np.random.default_rng([self.seed, rank, op_index]).random()
        acc = 0.0
        for kind, p in zip(FAULT_KINDS, self.probabilities):
            acc += p
            if u < acc:
                return kind
        return None

    # -- one-shot firing (thread-safe) -------------------------------------
    def next_op(self, rank: int) -> int:
        """Allocate the next operation index of ``rank`` (kill clock).

        Every endpoint call counts — sends, receives, allreduces — so
        ``kill_at`` can place a death anywhere in the schedule,
        mid-iteration included.
        """
        with self._lock:
            op = self._op_counts.get(rank, 0)
            self._op_counts[rank] = op + 1
            return op

    def ops(self, rank: int) -> int:
        """Operations ``rank`` has issued so far (where its kill clock
        stands) — read it on a fault-free run to aim ``kill_at``."""
        with self._lock:
            return self._op_counts.get(rank, 0)

    def next_send(self, rank: int) -> int:
        """Allocate the next *send* index of ``rank`` (fault clock).

        Message faults are per-send; a dedicated counter keeps the
        decision stream aligned with the messages actually on the wire,
        so ``inject[(rank, n)]`` always means "rank's n-th send".
        """
        with self._lock:
            op = self._send_counts.get(rank, 0)
            self._send_counts[rank] = op + 1
            return op

    def should_kill(self, rank: int, op_index: int) -> bool:
        kill = self.kill_at.get(rank)
        if kill is None or op_index < kill:
            return False
        return self._fire(rank, kill, "kill", "op")

    def take_fault(self, rank: int, op_index: int, op: str) -> Optional[str]:
        """The fault to inject now, or None (fires each fault once)."""
        kind = self.decide(rank, op_index)
        if kind is None or not self._fire(rank, op_index, kind, op):
            return None
        return kind

    def _fire(self, rank: int, op_index: int, kind: str, op: str) -> bool:
        with self._lock:
            key = (rank, op_index, kind)
            if key in self._fired:
                return False
            self._fired.add(key)
            self._events.setdefault(rank, []).append(
                FaultEvent(rank=rank, op_index=op_index, kind=kind, op=op)
            )
        self.metrics.counter("faults_injected_total", kind=kind).inc()
        return True

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Every fault injected so far, in (rank, op_index) order.

        Per-rank sequences are deterministic; the global sort removes the
        only thread-timing dependence, so two runs with equal seeds
        compare equal.
        """
        with self._lock:
            flat = [e for evs in self._events.values() for e in evs]
        return tuple(sorted(flat, key=lambda e: (e.rank, e.op_index, e.kind)))


# -- the endpoint wrapper -----------------------------------------------------
class _DroppedSendHandle:
    """Handle of a send the fault plan swallowed."""

    def __init__(self, nbytes: int):
        self.nbytes = nbytes

    def wait(self, timeout: Optional[float] = None) -> None:
        return None


class _DecodingRecvHandle:
    """Wraps an inner recv handle; decodes the checksummed frame."""

    def __init__(self, inner: Any):
        self._inner = inner

    def wait(self, timeout: Optional[float] = None) -> np.ndarray:
        return decode_payload(self._inner.wait(timeout))


class FaultyEndpoint:
    """A ``RankEndpoint``-compatible wrapper injecting planned faults.

    Payloads are framed with a checksum, so the *corrupt* fault — and any
    real bit-flip on an unreliable transport — surfaces as
    ``CorruptPayloadError`` at the receiver.
    Framing copies, so zero-copy send semantics are disabled; the engine
    falls back to reclaiming its own buffers.
    """

    zero_copy_sends = False

    def __init__(self, inner: Any, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.rank = inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    # -- fault machinery ---------------------------------------------------
    def _op(self, op: str) -> int:
        """Count one transport operation; dies here if the plan says so."""
        idx = self.plan.next_op(self.rank)
        if self.plan.should_kill(self.rank, idx):
            raise RankKilledError(
                f"rank {self.rank} killed by fault plan at operation {idx} "
                f"(during {op})"
            )
        return idx

    # -- sending -----------------------------------------------------------
    def isend(
        self, dst: int, payload: np.ndarray, tag: int = 0, copy: bool = True
    ) -> Any:
        self._op("isend")
        send_idx = self.plan.next_send(self.rank)
        frame = encode_payload(payload)
        kind = self.plan.take_fault(self.rank, send_idx, "isend")
        if kind == "drop":
            return _DroppedSendHandle(frame.nbytes)
        if kind == "delay":
            time.sleep(self.plan.delay)
        if kind == "corrupt":
            # flip a stored-checksum byte: body and header now disagree
            frame = frame.copy()
            frame[len(_MAGIC)] ^= 0xFF
        handle = self.inner.isend(dst, frame, tag=tag)
        if kind == "duplicate":
            self.inner.isend(dst, frame, tag=tag)
        return handle

    def send(self, dst: int, payload: np.ndarray, tag: int = 0) -> None:
        self.isend(dst, payload, tag).wait()

    # -- receiving ---------------------------------------------------------
    def irecv(self, src: int, tag: int) -> Any:
        self._op("irecv")
        inner = self.inner.irecv(src=src, tag=tag)
        return _DecodingRecvHandle(inner)

    def recv(
        self, src: int, tag: int, timeout: Optional[float] = None
    ) -> np.ndarray:
        self._op("recv")
        payload = self.inner.recv(src=src, tag=tag, timeout=timeout)
        return decode_payload(payload)

    # -- collectives -------------------------------------------------------
    def allreduce(self, value: np.ndarray | float, round_id: int = 0) -> np.ndarray:
        """Sum-allreduce routed through *this* endpoint's faulty sends.

        Runs the shared body over this endpoint rather than delegating to
        the inner one, so collective traffic is subject to the same
        faults and framing as halo traffic.
        """
        self._op("allreduce")
        return _allreduce(self, value, round_id)


class FaultyTransport:
    """Wraps a whole transport so every endpoint injects the same plan.

    Presents the surface :func:`repro.transport.inproc.run_ranks`
    consumes (``size`` / ``endpoint`` / ``stats``); any
    transport with that surface can be wrapped, not just the in-process
    one.
    """

    def __init__(self, inner: Any, plan: FaultPlan):
        self.inner = inner
        self.plan = plan

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def stats(self) -> list[TransportStats]:
        return self.inner.stats

    @property
    def default_timeout(self) -> float:
        return self.inner.default_timeout

    def endpoint(self, rank: int) -> FaultyEndpoint:
        return FaultyEndpoint(self.inner.endpoint(rank), self.plan)
