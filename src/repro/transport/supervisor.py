"""Supervised rank execution: bounded retry, backoff, crash reports.

``run_ranks`` fails fast; this module decides what happens *next*.  A
transient failure (lost or corrupted message — ``transient`` in the
error taxonomy) is retried with exponential backoff on a fresh
transport; a permanent one (dead rank) produces a :class:`CrashReport`
naming the failed rank, the error type, the schedule-IR step it died at
and every fault the plan injected — then re-raises the typed error so
callers up the stack (e.g. the SCF recovery loop) can act on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.transport.errors import StepInfo, TransportError, is_transient
from repro.transport.inproc import InprocTransport, run_ranks


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor retries transient failures.

    ``backoff_base * 2**attempt`` seconds are slept between attempts;
    ``max_retries`` bounds the retries (total attempts =
    ``max_retries + 1``).
    """

    max_retries: int = 2
    backoff_base: float = 0.01

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * 2.0 ** attempt


@dataclass(frozen=True)
class CrashReport:
    """Everything known about a failed supervised invocation."""

    failed_rank: Optional[int]
    error_type: str
    message: str
    transient: bool
    attempts: int
    step_info: Optional[StepInfo] = None
    fault_events: tuple = ()
    peer_errors: tuple = ()

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
        for rank, exc in self.peer_errors[1:]:
            lines.append(f"  also failed: rank {rank}: {exc!r}")
        return "\n".join(lines)


@dataclass
class SupervisedResult:
    """Outcome of a supervised invocation that eventually succeeded."""

    results: list
    attempts: int
    reports: list[CrashReport] = field(default_factory=list)


def crash_report_from(
    exc: TransportError, attempts: int = 1, fault_events: tuple = ()
) -> CrashReport:
    """Build a :class:`CrashReport` from a raised :class:`TransportError`.

    Public so any recovery layer (e.g. :class:`repro.dft.recovery
    .RecoveryController`) can attribute a failure it caught itself,
    without going through :func:`run_ranks_supervised`.
    """
    return CrashReport(
        failed_rank=getattr(exc, "failed_rank", None),
        error_type=type(exc).__name__,
        message=str(exc),
        transient=is_transient(exc),
        attempts=attempts,
        step_info=exc.step_info,
        fault_events=fault_events,
        peer_errors=getattr(exc, "peer_errors", ()),
    )


def run_ranks_supervised(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    transport_factory: Optional[Callable[[int], Any]] = None,
    policy: Optional[RetryPolicy] = None,
) -> SupervisedResult:
    """Run ``fn`` on ``size`` ranks under a retry supervisor.

    ``transport_factory(attempt)`` builds the transport for each attempt
    (a retry must not see the previous attempt's stale mailboxes); without
    one every attempt gets a fresh :class:`InprocTransport`.  Transient
    failures are retried per ``policy``; each failure's
    :class:`CrashReport` is collected, and the final failure is re-raised
    with ``.crash_report`` attached.
    """
    policy = policy if policy is not None else RetryPolicy()

    def make_transport(attempt: int) -> Any:
        if transport_factory is not None:
            return transport_factory(attempt)
        return InprocTransport(size)

    reports: list[CrashReport] = []
    attempt = 0
    while True:
        tr = make_transport(attempt)
        plan = getattr(tr, "plan", None)
        try:
            results = run_ranks(size, fn, *args, transport=tr)
            return SupervisedResult(
                results=results, attempts=attempt + 1, reports=reports
            )
        except TransportError as exc:
            fault_events = plan.events if plan is not None else ()
            report = crash_report_from(exc, attempt + 1, fault_events)
            reports.append(report)
            if is_transient(exc) and attempt < policy.max_retries:
                time.sleep(policy.backoff(attempt))
                attempt += 1
                continue
            exc.crash_report = report
            raise
