"""The unified span schema: one trace format for all three planes.

The schema is fixed to the schedule IR: a :class:`StepSpan` names the
**step kind** (``PostSend``/``WaitAll``/``ComputeInterior``/...), the
worker, the grid batch, the exchange ``seq`` and the originating
**plane** (``real``, ``sim`` or ``model``).  Because every plane
interprets the same :class:`~repro.core.schedule.SchedulePlan`, traces
are diffable step-for-step: same per-worker step-kind sequence, differing
only in timestamps.  Resource activity (a simulated core computing, a
torus link carrying a message) is a :class:`StepSpan` without a step
tag: its free label is the ``step_kind``.

Producers
---------

* real engine — :func:`engine_hook` adapts a :class:`SpanTracer` to the
  ``on_step`` callback of :meth:`repro.core.engine.DistributedStencil
  .apply`.
* DES — ``simulate_fd(..., step_tracer=...)`` records each replayed step
  at simulated time (:mod:`repro.core.simrun`); ``simulate_fd(...,
  trace=True)`` records per-core compute and per-link transfer spans
  through :meth:`SpanTracer.record`.
* analytic model — :meth:`repro.core.perfmodel.PerformanceModel
  .step_trace` emits the representative worker's closed-form timeline.

Timestamps are stored **raw** (``time.perf_counter`` for real runs,
simulated seconds for the others); consumers normalize against
the earliest span start so traces from different clocks align at zero.
Exporters live in :mod:`repro.obs.export`; they order spans by the
explicit :attr:`StepSpan.sort_key`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

__all__ = [
    "COMM_STEPS",
    "COMPUTE_STEPS",
    "SYNC_STEPS",
    "StepSpan",
    "SpanTracer",
    "engine_hook",
    "step_category",
]

#: step kinds whose time is communication (halo exchanges, band rings)
COMM_STEPS = frozenset({"PostSend", "PostRecv", "WaitAll"})
#: step kinds whose time is stencil computation (incl. ghost finalization)
COMPUTE_STEPS = frozenset(
    {"ComputeInterior", "ComputeBoundary", "ApplyLocalWraps", "PartialGemm"}
)
#: step kinds whose time is synchronization (barriers, thread spawn/join)
SYNC_STEPS = frozenset({"GridBarrier", "JoinBarrier"})


def step_category(step_kind: str) -> str:
    """The paper's breakdown bucket of one step kind.

    ``comm`` / ``compute`` / ``sync`` for schedule-IR steps, ``other``
    for free-text labels recorded through :meth:`SpanTracer.record`.
    """
    if step_kind in COMM_STEPS:
        return "comm"
    if step_kind in COMPUTE_STEPS:
        return "compute"
    if step_kind in SYNC_STEPS:
        return "sync"
    return "other"


@dataclass(frozen=True)
class StepSpan:
    """One schedule-IR step execution on one plane.

    ``seq``/``dim``/``direction`` are ``None`` for compute/barrier steps;
    ``grid_ids`` is empty for steps without a grid batch.  Equality is
    full-field equality, which is what the round-trip tests rely on.
    """

    resource: str  # e.g. "rank3.w1"
    step_kind: str  # schedule-IR type name, or a free label
    start: float
    end: float
    plane: str = "real"  # "real" | "sim" | "model"
    worker: int = 0
    grid_ids: tuple[int, ...] = ()
    seq: Optional[int] = None
    dim: Optional[int] = None
    direction: Optional[int] = None  # +1 / -1 halo step

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"span ends before it starts: {self.start}..{self.end}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def category(self) -> str:
        return step_category(self.step_kind)

    @property
    def sort_key(self) -> tuple:
        """Total, deterministic ordering (exporters sort by this)."""
        return (
            self.start,
            self.end,
            self.resource,
            self.step_kind,
            self.worker,
            -1 if self.seq is None else self.seq,
            self.grid_ids,
        )

    def label(self) -> str:
        """Short human-readable tag (Gantt rows, diff reports)."""
        out = self.step_kind
        if self.grid_ids:
            gids = ",".join(str(g) for g in self.grid_ids)
            out += f" g{gids}"
        if self.seq is not None:
            out += f" seq{self.seq}"
        return out


def _step_fields(step) -> tuple:
    """``(step_kind, grid_ids, seq, dim, direction)`` of one schedule step.

    The optional attributes are picked up with ``getattr`` so every step
    type maps onto the one schema (mirroring ``engine._step_info``).
    """
    gid = getattr(step, "grid_id", None)
    grid_ids = getattr(step, "grid_ids", (gid,) if gid is not None else ())
    return (
        type(step).__name__,
        tuple(grid_ids),
        getattr(step, "seq", None),
        getattr(step, "dim", None),
        getattr(step, "step", None),
    )


class SpanTracer:
    """Collects :class:`StepSpan`\\ s from concurrently running workers.

    One tracer spans a whole run — the in-process transport executes
    ranks on threads, and all of them record here, so mutation is
    lock-protected.  Per-resource ordering is *insertion* ordering: each
    worker records its own steps sequentially, so filtering by resource
    yields that worker's true execution order even when zero-duration
    steps share a timestamp (sorting by time could not break those ties).
    """

    def __init__(
        self, plane: str = "real", config_hash: Optional[str] = None
    ) -> None:
        self.plane = plane
        #: :meth:`repro.core.jobspec.JobSpec.config_hash` of the run that
        #: produced this trace; producers fill it in when they know the
        #: spec (``DistributedSCF.run``, ``step_trace``), exporters
        #: carry it so any artifact traces back to its configuration
        self.config_hash = config_hash
        self._lock = threading.Lock()
        # StepSpan objects interleaved with raw (resource, step, worker,
        # start, end) tuples; record_step defers StepSpan construction so
        # the enabled hot path is one lock + one append (the bench gate's
        # <3% budget), and _materialize builds the dataclasses on first
        # query (records() hands the raw tuples out unbuilt).
        self._entries: list = []

    # -- recording ---------------------------------------------------------
    def add(self, span: StepSpan) -> None:
        with self._lock:
            self._entries.append(span)

    def record_step(
        self,
        resource: str,
        step,
        worker: int,
        start: float,
        end: float,
    ) -> None:
        """Record one executed schedule-IR step.

        ``step`` is any :data:`repro.core.schedule.Step`.  The step
        object is stored as-is and converted to a :class:`StepSpan`
        lazily (:func:`_step_fields`) — schedule steps are immutable, so
        deferral is safe.
        """
        if end < start:
            raise ValueError(f"span ends before it starts: {start}..{end}")
        with self._lock:
            self._entries.append((resource, step, worker, start, end))

    def extend_steps(self, records: Iterable[tuple]) -> None:
        """Bulk-append ``(resource, step, worker, start, end)`` rows.

        One lock acquisition for a whole engine-side buffer; the iterable's
        order becomes the insertion order (the per-resource step order
        cross-plane comparisons rely on).  Rows are validated like
        :meth:`record_step`.
        """
        rows = list(records)
        for r in rows:
            if r[4] < r[3]:
                raise ValueError(f"span ends before it starts: {r[3]}..{r[4]}")
        with self._lock:
            self._entries.extend(rows)

    def record(
        self, resource: str, start: float, end: float, label: str = ""
    ) -> None:
        """Record one resource-activity span; ``label`` becomes the step kind."""
        self.add(
            StepSpan(
                resource=resource,
                step_kind=label or "span",
                start=start,
                end=end,
                plane=self.plane,
            )
        )

    def records(self) -> list:
        """A snapshot of the entries, in insertion order, under the lock.

        Each entry is either a built :class:`StepSpan` or a raw
        ``(resource, step, worker, start, end)`` record from
        :meth:`record_step`; nothing is materialized, so a consumer that
        reads only a few fields (``critical_path``) builds spans only
        where it needs them.
        """
        with self._lock:
            return list(self._entries)

    def _materialize(self) -> list[StepSpan]:
        """Replace raw records with built spans, in place, under the lock."""
        entries = self._entries
        fields: dict[int, tuple] = {}  # id(step) -> _step_fields(step)
        for i, e in enumerate(entries):
            if type(e) is tuple:
                resource, step, worker, start, end = e
                f = fields.get(id(step))
                if f is None:
                    f = fields[id(step)] = _step_fields(step)
                kind, grid_ids, seq, dim, direction = f
                entries[i] = StepSpan(
                    resource=resource,
                    step_kind=kind,
                    start=start,
                    end=end,
                    plane=self.plane,
                    worker=worker,
                    grid_ids=grid_ids,
                    seq=seq,
                    dim=dim,
                    direction=direction,
                )
        return list(entries)

    def drain(self) -> list[StepSpan]:
        """Materialize, return and remove every recorded span.

        The flight recorder's rotation primitive: hooks created by
        :func:`engine_hook` keep a reference to this tracer, so windowing
        must empty the tracer in place rather than swap it out.
        """
        with self._lock:
            out = self._materialize()
            self._entries = []
            return out

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def spans(self) -> list[StepSpan]:
        """All spans in insertion order."""
        with self._lock:
            return self._materialize()

    def resources(self) -> list[str]:
        return sorted({s.resource for s in self.spans()})

    def makespan(self) -> float:
        """Last end minus first start (0 for an empty trace)."""
        spans = self.spans()
        if not spans:
            return 0.0
        return max(s.end for s in spans) - min(s.start for s in spans)


def engine_hook(
    tracer: SpanTracer, rank: int, worker_prefix: str = "rank"
) -> Callable:
    """An ``on_step`` hook recording real engine steps into ``tracer``.

    Resources are named ``rank{rank}.w{worker}``, as in the DES step
    trace, so real, simulated and modeled traces of the same plan line
    up row-for-row.  One :class:`SpanTracer` serves *all* ranks of a run
    (it is thread-safe), and timestamps stay raw — ``time.perf_counter``
    is one clock across the rank threads, so spans are globally aligned
    and normalization happens at export time.
    """

    names: dict[int, str] = {}

    def hook(step, worker: int, start: float, end: float) -> None:
        resource = names.get(worker)
        if resource is None:
            resource = names[worker] = f"{worker_prefix}{rank}.w{worker}"
        tracer.record_step(resource, step, worker, start, end)

    return hook
