"""Typed transport errors and failure attribution.

A distributed engine that fails with a bare ``RuntimeError`` at 16384
ranks is undebuggable: *which* rank, *which* message, *which* compiled
schedule step?  This module gives every transport failure a type (so
a retry loop can decide between retry and crash), a :class:`StepInfo`
payload (so every failure points at the schedule-IR step that was being
interpreted when it happened) and a :class:`CrashReport` that gathers
both with the faults the plan injected.

It also owns the wire-tag format: :func:`message_tag` and
:func:`ring_tag` build the tags every plane sends under (the schedule IR
imports them from here), and :func:`describe_tag` reads one back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: reserved for grid redistribution transfers; every halo tag stays below it
REDIST_TAG_BASE = 1 << 24
#: mirrors repro.dft.checkpoint's gather tag space
CHECKPOINT_TAG_BASE = 1 << 26
#: band-ring tags live above checkpoint traffic and below collectives
RING_TAG_BASE = 1 << 27
#: ring stages per phase: a phase owns ``RING_STAGES`` consecutive tags
RING_STAGES = 1 << 12
#: tag space of every endpoint's allreduce (repro.transport.inproc)
COLL_TAG_BASE = 1 << 28


def message_tag(seq: int, dim: int, step: int) -> int:
    """The wire tag of one halo message: sequence number + direction."""
    return seq * 8 + dim * 2 + (0 if step > 0 else 1)


def decode_halo_tag(tag: int) -> tuple[int, int, int]:
    """Invert :func:`message_tag`: ``tag -> (seq, dim, step)``."""
    if tag < 0:
        raise ValueError(f"halo tags are non-negative, got {tag}")
    seq, rest = divmod(tag, 8)
    dim, parity = divmod(rest, 2)
    return seq, dim, (+1 if parity == 0 else -1)


def ring_tag(phase: int, stage: int) -> int:
    """The wire tag of one band-ring stage (``0 <= stage < RING_STAGES``)."""
    return RING_TAG_BASE + phase * RING_STAGES + stage


def describe_tag(tag: int) -> str:
    """Human-readable meaning of a wire tag (halo, collective, ...).

    Used by timeout messages so "recv(tag=13) timed out" becomes
    "halo exchange seq 1, dim 2, -z direction" — the difference between
    grepping a tag table and reading the failure.
    """
    if tag >= COLL_TAG_BASE:
        return f"collective round {tag - COLL_TAG_BASE}"
    if tag >= RING_TAG_BASE:
        phase, stage = divmod(tag - RING_TAG_BASE, RING_STAGES)
        name = {0: "overlap", 1: "rotate", 2: "band-sum"}.get(
            phase, f"phase {phase}"
        )
        return f"band ring {name} stage {stage}"
    if tag >= CHECKPOINT_TAG_BASE:
        return f"checkpoint gather slot {tag - CHECKPOINT_TAG_BASE}"
    if tag >= REDIST_TAG_BASE:
        return f"redistribution transfer {tag - REDIST_TAG_BASE}"
    seq, dim, step = decode_halo_tag(tag)
    axis = "xyz"[dim] if dim < 3 else f"dim{dim}"
    sign = "+" if step > 0 else "-"
    return f"halo exchange seq {seq}, {sign}{axis} direction"


@dataclass(frozen=True)
class StepInfo:
    """Schedule-IR coordinates of a failure: which compiled step died.

    Attached by the engine's IR interpreter when a transport call raises
    while a step is being executed; carried by every
    :class:`TransportError` subclass through ``attach_step``.
    """

    rank: int
    worker: int
    step_kind: str  # PostSend / PostRecv / WaitAll / ...
    seq: Optional[int] = None  # exchange round
    dim: Optional[int] = None
    direction: Optional[int] = None  # +1 / -1
    peer: Optional[int] = None  # src or dst domain
    grid_ids: tuple[int, ...] = ()  # caller grid ids of the batch

    def describe(self) -> str:
        parts = [f"rank {self.rank}", f"worker {self.worker}", self.step_kind]
        if self.seq is not None:
            parts.append(f"round {self.seq}")
        if self.dim is not None and self.direction is not None:
            axis = "xyz"[self.dim] if self.dim < 3 else f"dim{self.dim}"
            parts.append(f"{'+' if self.direction > 0 else '-'}{axis}")
        if self.peer is not None:
            parts.append(f"peer {self.peer}")
        if self.grid_ids:
            parts.append(f"grids {list(self.grid_ids)}")
        return " ".join(parts)


class TransportError(RuntimeError):
    """Base of all transport failures (misuse, timeout, fault injection).

    Subclasses form the error taxonomy retry loops dispatch on;
    ``step_info`` (attached by the engine) attributes the failure to one
    compiled schedule step.  ``transient`` marks errors a bounded retry
    can plausibly fix (a lost or corrupted message) as opposed to
    permanent ones (a dead rank).
    """

    transient = False

    def __init__(self, message: str):
        super().__init__(message)
        self.step_info: Optional[StepInfo] = None

    def attach_step(self, info: StepInfo) -> "TransportError":
        """Attribute this failure to a schedule step (idempotent)."""
        if self.step_info is None:
            self.step_info = info
            self.args = (f"{self.args[0]} [at step: {info.describe()}]",)
        return self


class HaloTimeoutError(TransportError):
    """A bounded receive wait expired: message lost or peer desynced."""

    transient = True


class CorruptPayloadError(TransportError):
    """A received payload failed its checksum."""

    transient = True


class RankKilledError(TransportError):
    """This rank was killed by the fault plan (simulated rank death)."""

    transient = False


@dataclass(frozen=True)
class CrashReport:
    """Everything known about one failed attempt of a distributed run."""

    failed_rank: Optional[int]
    error_type: str
    message: str
    transient: bool
    attempts: int
    step_info: Optional[StepInfo] = None
    fault_events: tuple = ()
    #: ``(rank, exception)`` of every failed rank, the primary first and
    #: the others by rank (``run_ranks``' ``peer_errors``)
    peer_errors: tuple = ()
    #: the primary rank's own exception (the one ``message`` wraps)
    cause: Optional[BaseException] = None

    def format(self) -> str:
        lines = [
            f"crash report: rank {self.failed_rank} died with "
            f"{self.error_type} after {self.attempts} attempt(s)",
            f"  error     : {self.message}",
            f"  transient : {self.transient}",
            f"  step      : "
            + (self.step_info.describe() if self.step_info else "(not attributed)"),
        ]
        if self.fault_events:
            lines.append("  injected faults:")
            for ev in self.fault_events:
                lines.append(
                    f"    rank {ev.rank} op {ev.op_index}: {ev.kind} ({ev.op})"
                )
        for rank, exc in self.peer_errors:
            if exc is not self.cause:
                lines.append(f"  also failed: rank {rank}: {exc!r}")
        return "\n".join(lines)


def crash_report_from(
    exc: TransportError, attempts: int, transport: object
) -> CrashReport:
    """Build the :class:`CrashReport` of one failed attempt.

    ``exc`` ended attempt number ``attempts``, run on ``transport``.  The
    injected faults are read from the transport's fault plan (a
    :class:`~repro.transport.faults.FaultyTransport`); a plain transport
    contributes none.
    """
    plan = getattr(transport, "plan", None)
    return CrashReport(
        failed_rank=getattr(exc, "failed_rank", None),
        error_type=type(exc).__name__,
        message=str(exc),
        transient=exc.transient,
        attempts=attempts,
        step_info=exc.step_info,
        fault_events=plan.events if plan is not None else (),
        peer_errors=getattr(exc, "peer_errors", ()),
        cause=exc.__cause__,
    )
