"""Typed transport errors and failure attribution.

A distributed engine that fails with a bare ``RuntimeError`` at 16384
ranks is undebuggable: *which* rank, *which* message, *which* compiled
schedule step?  This module gives every transport failure a type (so
supervisors can decide between retry and crash) and a :class:`StepInfo`
payload (so every failure points at the schedule-IR step that was being
interpreted when it happened).

Layering: the transport cannot import :mod:`repro.core.schedule` (the
engine imports the transport), so the wire-tag encoding is mirrored here
and cross-checked by tests against ``schedule.message_tag``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: mirrors repro.core.schedule.message_tag: tag = seq * 8 + dim * 2 + dir
_HALO_TAG_STRIDE = 8
#: mirrors repro.grid.redistribute.redistribute's default tag_base
REDIST_TAG_BASE = 1 << 24
#: mirrors repro.dft.checkpoint's gather tag space
CHECKPOINT_TAG_BASE = 1 << 26
#: mirrors repro.core.schedule.RING_TAG_BASE (band orthogonalization ring)
RING_TAG_BASE = 1 << 27
#: tag space of every endpoint's allreduce (repro.transport.inproc)
COLL_TAG_BASE = 1 << 28

_DIR_SIGN = {0: "+", 1: "-"}


def decode_halo_tag(tag: int) -> tuple[int, int, int]:
    """Invert the halo wire-tag encoding: ``tag -> (seq, dim, step)``.

    ``step`` is +1/-1, matching :func:`repro.core.schedule.message_tag`.
    """
    if tag < 0:
        raise ValueError(f"halo tags are non-negative, got {tag}")
    seq, rest = divmod(tag, _HALO_TAG_STRIDE)
    dim, parity = divmod(rest, 2)
    return seq, dim, (+1 if parity == 0 else -1)


def describe_tag(tag: int) -> str:
    """Human-readable meaning of a wire tag (halo, collective, ...).

    Used by timeout messages so "recv(tag=13) timed out" becomes
    "halo exchange seq 1, dim 2, -z direction" — the difference between
    grepping a tag table and reading the failure.
    """
    if tag < 0:
        return "any tag"
    if tag >= COLL_TAG_BASE:
        return f"collective round {tag - COLL_TAG_BASE}"
    if tag >= RING_TAG_BASE:
        phase, stage = divmod(tag - RING_TAG_BASE, 1 << 12)
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

    Subclasses form the error taxonomy supervisors dispatch on;
    ``step_info`` (attached by the engine) attributes the failure to one
    compiled schedule step.  ``transient`` marks errors a bounded retry
    can plausibly fix (a lost or corrupted message) as opposed to
    permanent ones (a dead rank).
    """

    transient = False

    def __init__(self, message: str, step_info: Optional[StepInfo] = None):
        super().__init__(message)
        self.step_info = step_info

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


class PeerDeadError(TransportError):
    """A peer rank is known dead (broken barrier, failed join)."""

    transient = False


class RankKilledError(TransportError):
    """This rank was killed by the fault plan (simulated rank death)."""

    transient = False


def is_transient(exc: BaseException) -> bool:
    """True when a bounded retry could plausibly clear the failure."""
    return isinstance(exc, TransportError) and exc.transient
