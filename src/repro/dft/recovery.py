"""The self-healing recovery controller: observe, replan, regroup, resume.

PR 3 gave the library typed failures and checkpoint/restart; PR 6 a
planner that prices every feasible layout.  This module closes the loop
between them.  :class:`RecoveryController` wraps a
:class:`~repro.dft.distributed_scf.DistributedSCF` and turns failure
handling into a policy-driven **degradation ladder**:

1. **Observe** — a :class:`~repro.transport.errors.TransportError`
   raised by an attempt is attributed via :func:`~repro.transport
   .supervisor.crash_report_from` (failed rank, transient vs fatal,
   schedule-step info, injected fault events).
2. **Decide** — a transient failure retries in place; a fatal one
   shrinks the resource set by the policy's blast radius and asks
   :meth:`~repro.core.planner.Planner.degrade` for the best feasible
   layout on the survivors, walking candidate core counts downward.
   Typed :class:`~repro.core.planner.Rejection`\\ s explain every layout
   it could not use; running out of rungs raises
   :class:`~repro.core.recovery_policy.DegradationError`.
3. **Regroup** — the rebuilt :class:`DistributedSCF` resumes from the
   latest committed checkpoint; :func:`~repro.dft.checkpoint
   .regroup_checkpoint` re-slices the band axis and the domains onto the
   planner-chosen ``(ranks, band groups)`` layout.
4. **Adapt** — between attempts the controller feeds the measured
   per-iteration wall time (``scf_iteration_seconds``), per-deposit cost
   (``checkpoint_deposit_seconds``) and observed failure rate into
   :class:`~repro.core.recovery_policy.AdaptiveCadence`, which applies
   Daly's :func:`~repro.analysis.resilience.optimal_checkpoint_interval`
   live instead of trusting a constructor constant.

Everything is deterministic under a seeded
:class:`~repro.transport.faults.FaultPlan` and observable: attempts are
``recovery.attempt{k}`` spans on the tracer, and the ``recovery_*``
counters/gauges/histograms land in the metrics registry.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.core.planner import Planner
from repro.core.recovery_policy import (
    AdaptiveCadence,
    DegradationError,
    DegradationPolicy,
    DegradationStep,
)
from repro.dft.distributed_scf import DistributedSCF, DistributedSCFResult
from repro.transport.errors import TransportError
from repro.transport.supervisor import CrashReport, crash_report_from

__all__ = ["RecoveryController"]


class RecoveryController:
    """Drive a :class:`DistributedSCF` to completion through failures.

    ``transport_factory(attempt, n_ranks)`` builds each attempt's
    transport for the *current* layout (default: the SCF's own default
    transport) — a recovery that shrank the run needs a smaller
    transport, which is why the factory takes the rank count.

    The controller owns no numerical state: all state flows through the
    shared checkpoint store, so the ladder can rebuild the SCF object
    freely.  After :meth:`run` returns, :attr:`steps` records every rung
    taken and :attr:`scf` is the instance that finished.
    """

    def __init__(
        self,
        scf: DistributedSCF,
        policy: Optional[DegradationPolicy] = None,
        planner: Optional[Planner] = None,
        transport_factory: Optional[Callable[[int, int], object]] = None,
        metrics=None,
        tracer=None,
        flight_recorder=None,
    ) -> None:
        if scf.checkpoint_store is None:
            raise ValueError(
                "RecoveryController needs an SCF with a checkpoint_store "
                "(recovery resumes from committed snapshots)"
            )
        from repro.obs.metrics import resolve_registry

        self.scf = scf
        self.policy = policy if policy is not None else DegradationPolicy()
        self.planner = planner if planner is not None else Planner()
        self.transport_factory = transport_factory
        self.metrics = resolve_registry(
            metrics if metrics is not None
            else (scf.metrics if scf.metrics.enabled else None)
        )
        self.tracer = tracer
        #: :class:`~repro.obs.flightrec.FlightRecorder` fed to every
        #: attempt's :meth:`DistributedSCF.run`; dumped on each crash and
        #: before a fatal degradation (see :attr:`flight_dumps`)
        self.flight_recorder = flight_recorder
        #: post-mortem artifacts, one per crash/fatal event, in order
        self.flight_dumps: list[dict] = []
        self.steps: list[DegradationStep] = []
        self.reports: list[CrashReport] = []
        self._m_attempts = self.metrics.counter("recovery_attempts_total")
        self._m_replans = self.metrics.counter("recovery_replans_total")
        self._m_transient = self.metrics.counter(
            "recovery_transient_retries_total"
        )
        self._m_downtime = self.metrics.histogram("recovery_downtime_seconds")
        self._m_ranks = self.metrics.gauge("recovery_ranks")
        self._m_groups = self.metrics.gauge("recovery_band_groups")
        self._m_interval = self.metrics.gauge(
            "recovery_checkpoint_interval_iterations"
        )

    # -- cadence -----------------------------------------------------------
    def _measured_checkpoint_seconds(self) -> float:
        """Per-snapshot cost: mean deposit latency, policy prior fallback."""
        hist = self.metrics.histogram("checkpoint_deposit_seconds")
        if hist.count > 0 and hist.mean > 0:
            return float(hist.mean)
        store_hist = self.scf.checkpoint_store.metrics.histogram(
            "checkpoint_deposit_seconds"
        )
        if store_hist.count > 0 and store_hist.mean > 0:
            return float(store_hist.mean)
        return self.policy.checkpoint_seconds

    def _mtbf_estimate(self, wall_elapsed: float, fatal_failures: int):
        """Observed MTBF; the policy prior until a failure has been seen."""
        if fatal_failures > 0 and wall_elapsed > 0:
            return wall_elapsed / fatal_failures
        return self.policy.expected_mtbf

    def _apply_cadence(self, wall_elapsed: float, fatal_failures: int) -> None:
        """Attach/update the adaptive cadence on the current SCF."""
        if not self.policy.adaptive_cadence:
            self.scf.cadence = None
            return
        mtbf = self._mtbf_estimate(wall_elapsed, fatal_failures)
        if mtbf is None:
            # no failure-rate signal yet: keep the static cadence
            self.scf.cadence = None
            return
        cadence = AdaptiveCadence(
            checkpoint_seconds=self._measured_checkpoint_seconds(),
            mtbf=mtbf,
            min_every=self.policy.min_checkpoint_every,
            max_every=self.policy.max_checkpoint_every,
        )
        self.scf.cadence = cadence
        iter_hist = self.metrics.histogram("scf_iteration_seconds")
        if iter_hist.count > 0 and iter_hist.mean > 0:
            self._m_interval.set(
                float(cadence.interval_iterations(iter_hist.mean))
            )

    # -- the ladder --------------------------------------------------------
    def _degrade(self, report: CrashReport, attempt: int) -> None:
        """Replace :attr:`scf` with the best feasible smaller layout."""
        old_spec = self.scf.spec
        survivors = old_spec.layout.n_cores - self.policy.ranks_lost_per_failure
        rejections: list = []
        for cores in range(survivors, self.policy.min_ranks - 1, -1):
            result = self.planner.degrade(old_spec, cores)
            if result.choices:
                best = result.best()
                rejections.extend(result.rejected)
                self._rebuild(best.spec)
                self._m_replans.inc()
                self._m_ranks.set(float(best.spec.layout.n_cores))
                self._m_groups.set(float(best.spec.layout.n_band_groups))
                self._record_step(
                    attempt, report, old_spec.layout, tuple(rejections)
                )
                return
            rejections.extend(result.rejected)
        if self.flight_recorder is not None:
            # fatal: no feasible layout remains — preserve the window
            # before the exception unwinds past the caller
            self.flight_dumps.append(self.flight_recorder.dump(
                f"fatal degradation: no layout for <= {survivors} ranks",
                crash_report=report,
            ))
        raise DegradationError(survivors, rejections)

    def _record_step(self, attempt, report, old_layout, rejections=()) -> None:
        """Append the rung just taken; :attr:`scf` is already the
        instance the next attempt runs (unchanged for an in-place retry)."""
        latest = self.scf.checkpoint_store.latest()
        cadence = self.scf.cadence
        spec = self.scf.spec
        self.steps.append(DegradationStep(
            attempt=attempt,
            failed_rank=report.failed_rank,
            error_type=report.error_type,
            transient=report.transient,
            from_ranks=old_layout.n_cores,
            from_groups=old_layout.n_band_groups,
            to_ranks=spec.layout.n_cores,
            to_groups=spec.layout.n_band_groups,
            batch_size=spec.layout.batch_size,
            resumed_iteration=latest.iteration if latest else 0,
            checkpoint_every=(
                cadence.last_interval if cadence is not None
                else spec.runtime.checkpoint_every
            ),
            rejections=rejections,
        ))

    def _rebuild(self, spec) -> None:
        """A fresh SCF for the degraded spec, sharing stores/telemetry."""
        old = self.scf
        self.scf = DistributedSCF.from_spec(
            spec,
            old.v_ext,
            occupations=list(old.occ),
            checkpoint_store=old.checkpoint_store,
            metrics=old.metrics if old.metrics.enabled else None,
            cadence=old.cadence,
        )

    # -- the loop ----------------------------------------------------------
    def run(self, step_tracer=None) -> DistributedSCFResult:
        """Run to completion, degrading on fatal failures.

        Raises the final :class:`TransportError` once the restart budget
        is exhausted, or :class:`DegradationError` when no surviving
        resource count admits a feasible layout.
        """
        policy = self.policy
        attempt = 0
        fatal_failures = 0
        t_run0 = time.perf_counter()
        while True:
            self._apply_cadence(time.perf_counter() - t_run0, fatal_failures)
            transport = None
            if self.transport_factory is not None:
                transport = self.transport_factory(
                    attempt, self.scf.layout.n_ranks
                )
            resume = self.scf.checkpoint_store.latest()
            self._m_attempts.inc()
            t0 = time.perf_counter()
            try:
                result = self.scf.run(
                    transport=transport,
                    resume_from=resume,
                    step_tracer=step_tracer,
                    flight_recorder=self.flight_recorder,
                )
            except TransportError as exc:
                t1 = time.perf_counter()
                attempt += 1
                report = getattr(exc, "crash_report", None)
                if report is None:
                    plan = getattr(transport, "plan", None)
                    report = crash_report_from(
                        exc, attempt, plan.events if plan is not None else ()
                    )
                self.reports.append(report)
                if self.flight_recorder is not None:
                    self.flight_dumps.append(self.flight_recorder.dump(
                        f"crash: attempt {attempt}", crash_report=report
                    ))
                self.metrics.counter(
                    "recovery_failures_total", error=report.error_type
                ).inc()
                self._m_downtime.observe(t1 - t0)
                if self.tracer is not None:
                    self.tracer.record(
                        f"recovery.attempt{attempt}", t0 - t_run0, t1 - t_run0,
                        f"crashed: {report.error_type} rank "
                        f"{report.failed_rank}",
                    )
                if attempt > policy.max_restarts:
                    raise
                self.scf.checkpoint_store.discard_pending()
                if report.transient and policy.retry_transient_in_place:
                    self._m_transient.inc()
                    self._record_step(attempt, report, self.scf.spec.layout)
                    continue
                fatal_failures += 1
                self._degrade(report, attempt)
                continue
            t1 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.record(
                    f"recovery.attempt{attempt + 1}",
                    t0 - t_run0, t1 - t_run0,
                    f"completed on {self.scf.layout.n_ranks} ranks",
                )
            result.restarts = attempt
            self._m_ranks.set(float(self.scf.layout.n_ranks))
            self._m_groups.set(float(self.scf.layout.n_groups))
            return result
