"""Crash-coupled flight recorder: the last K iterations, always on hand.

Post-mortem analysis of a dead run needs the telemetry *leading up to*
the death, but tracing a whole long SCF run to keep the last few
iterations is wasteful.  The :class:`FlightRecorder` keeps a bounded
ring buffer instead: at every iteration boundary it drains its
:class:`~repro.obs.spans.SpanTracer` (one lock + list swap), appending
an :class:`IterationRecord` to a ``deque(maxlen=K)``.  Steady-state cost
is the span recording itself — the same hook a plain tracer uses — plus
one drain per iteration.  Recording adds no operation to the run: a
recorded SCF sends the bare run's messages and reaches its energy bit
for bit (``tests/test_obs_flightrec.py``).

On a crash (:class:`~repro.transport.errors.CrashReport`) or a
fatal degradation, :meth:`FlightRecorder.dump` turns the window into a
self-contained JSON artifact: the Chrome trace of the buffered spans
(round-trips :func:`~repro.obs.export.parse_chrome_trace`), the
critical-path blame summary and the formatted crash report.
``DistributedSCF.run(flight_recorder=...)`` feeds the recorder;
:class:`~repro.dft.recovery.RecoveryController` dumps it automatically
on every crash and before declaring a degradation fatal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.export import chrome_trace
from repro.obs.critpath import critical_path
from repro.obs.spans import SpanTracer, StepSpan

__all__ = ["FlightRecorder", "IterationRecord"]


@dataclass
class IterationRecord:
    """One iteration's worth of buffered telemetry."""

    iteration: int
    spans: list[StepSpan] = field(default_factory=list)


class FlightRecorder:
    """Bounded ring buffer of recent iterations' spans + metric deltas.

    ``capacity`` is the window K (iterations).  The recorder owns one
    :class:`SpanTracer` (:attr:`tracer`) which producers record into —
    pass it as the ``step_tracer`` of a run, or let
    ``DistributedSCF.run`` wire it when given a ``flight_recorder``.
    """

    def __init__(self, capacity: int = 8, plane: str = "real") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.tracer = SpanTracer(plane=plane)
        self._window: deque[IterationRecord] = deque(maxlen=capacity)

    # -- recording ---------------------------------------------------------
    @property
    def config_hash(self) -> Optional[str]:
        return self.tracer.config_hash

    @config_hash.setter
    def config_hash(self, value: Optional[str]) -> None:
        self.tracer.config_hash = value

    def mark_iteration(self, iteration: int) -> IterationRecord:
        """Rotate the window at an iteration boundary.

        Drains every span recorded since the previous mark; the oldest
        record falls off when the window is full.  Call once per
        iteration from the coordinating rank.
        """
        record = IterationRecord(iteration=iteration, spans=self.tracer.drain())
        self._window.append(record)
        return record

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._window)

    def spans(self) -> list[StepSpan]:
        """All buffered spans plus any not yet rotated, in record order."""
        out: list[StepSpan] = []
        for record in self._window:
            out.extend(record.spans)
        out.extend(self.tracer.spans())
        return out

    # -- dumping -----------------------------------------------------------
    def dump(self, reason: str, crash_report=None) -> dict:
        """The post-mortem artifact: JSON-ready, self-contained.

        ``trace`` round-trips :func:`~repro.obs.export
        .parse_chrome_trace`; ``critical_path`` is the blame summary of
        the whole buffered window; ``crash_report`` (optional) is a
        :class:`~repro.transport.errors.CrashReport` embedded as its
        formatted text plus the failure coordinates.
        """
        spans = self.spans()
        tracer = SpanTracer(
            plane=self.tracer.plane, config_hash=self.tracer.config_hash
        )
        for s in spans:
            tracer.add(s)
        cp = critical_path(spans) if spans else None
        out = {
            "reason": reason,
            "config_hash": self.tracer.config_hash,
            "capacity": self.capacity,
            "iterations": [r.iteration for r in self._window],
            "trace": chrome_trace(tracer),
            "critical_path": cp.summary() if cp is not None else None,
        }
        if crash_report is not None:
            out["crash_report"] = {
                "failed_rank": crash_report.failed_rank,
                "error_type": crash_report.error_type,
                "transient": crash_report.transient,
                "text": crash_report.format(),
            }
        return out
