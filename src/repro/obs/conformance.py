"""Model-conformance drift detection: measured trace vs. predicted trace.

The analytic :class:`~repro.core.perfmodel.PerformanceModel` predicts a
per-step timeline for every :class:`~repro.core.jobspec.JobSpec`; the
telemetry plane measures one.  This module closes the loop: align the
two, compute per-step-kind residuals and a scalar **conformance score**,
and turn anomalies into typed :class:`PerfFinding`\\ s —

* :class:`CommDrift` — measured communication time drifted away from
  the model's prediction (congestion, placement, contention the model
  does not capture);
* :class:`StragglerRank` — one rank blocks its peers (from the
  critical-path walk's blocked-wait attribution);
* :class:`LoadImbalance` — per-rank busy time spreads wider than a
  balanced decomposition should allow.

Findings are data, not log lines: ``kind`` is the class name, so
``repro doctor`` tables and tests key off the type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.obs.critpath import CriticalPathResult, critical_path, plan_for_spec
from repro.obs.export import step_kind_seconds
from repro.obs.spans import SpanTracer, StepSpan

__all__ = [
    "CommDrift",
    "ConformanceReport",
    "LoadImbalance",
    "PerfFinding",
    "StragglerRank",
    "check_conformance",
]


@dataclass(frozen=True)
class PerfFinding:
    """One detected performance anomaly.

    ``severity`` is a unitless magnitude (ratios for drift, seconds for
    blocking) — findings of one kind sort by it; comparing severities
    across kinds is meaningless.
    """

    severity: float
    detail: str

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class CommDrift(PerfFinding):
    """Measured comm time off the model's prediction by ``ratio``."""

    ratio: float = 0.0  # measured / modeled - 1; sign = direction


@dataclass(frozen=True)
class StragglerRank(PerfFinding):
    """``rank`` kept its peers blocked for ``blocked_seconds``."""

    rank: int = -1
    blocked_seconds: float = 0.0


@dataclass(frozen=True)
class LoadImbalance(PerfFinding):
    """Per-rank busy time spread (max/mean - 1) of ``spread``."""

    spread: float = 0.0


@dataclass
class ConformanceReport:
    """The verdict of one measured-vs-model alignment."""

    config_hash: Optional[str]
    #: |measured - modeled| / modeled makespan
    drift: float
    #: ``max(0, 1 - drift)`` — 1.0 is a perfect match
    score: float
    measured_makespan: float
    model_makespan: float
    #: step kind -> (measured per-resource mean seconds, modeled seconds)
    residuals: dict[str, tuple[float, float]] = field(default_factory=dict)
    findings: list[PerfFinding] = field(default_factory=list)
    critpath: Optional[CriticalPathResult] = None

    def format(self) -> str:
        """Aligned verdict table (``repro doctor``)."""
        lines = [
            f"conformance: score {self.score:.3f}  drift {self.drift:.1%}"
            + (f"  [{self.config_hash}]" if self.config_hash else ""),
            f"  makespan measured {self.measured_makespan:.6g} s"
            f"  modeled {self.model_makespan:.6g} s",
            f"  {'step kind':<18} {'measured':>12} {'modeled':>12} {'ratio':>7}",
        ]
        for kind in sorted(self.residuals):
            meas, mod = self.residuals[kind]
            ratio = f"{meas / mod:7.2f}" if mod > 0 else "    n/a"
            lines.append(f"  {kind:<18} {meas:>12.6g} {mod:>12.6g} {ratio}")
        if self.findings:
            for f in self.findings:
                lines.append(f"  FINDING {f.kind}: {f.detail}")
        else:
            lines.append("  no findings")
        return "\n".join(lines)


#: an exposed-comm residual ratio farther than this from 1 is drift ...
COMM_DRIFT_THRESHOLD = 0.5
#: ... but only once the gap exceeds this share of the modeled makespan
COMM_SHARE_FLOOR = 0.05
#: a rank blocking peers longer than this share of wall time straggles
STRAGGLER_THRESHOLD = 0.1
#: per-resource busy-time spread (max/mean - 1) beyond this is imbalance
IMBALANCE_THRESHOLD = 0.25


def check_conformance(
    measured: Union[SpanTracer, Iterable[StepSpan]],
    spec,
) -> ConformanceReport:
    """Align a measured trace against the model's prediction for ``spec``.

    ``measured`` is a trace of the FD plan ``spec`` compiles to (any
    plane); ``spec`` is the :class:`~repro.core.jobspec.JobSpec` that
    produced it.  The model timeline (priced on ``BGP_SPEC``) and the
    compiled plan the critical-path walk resolves cross-rank edges
    through are both rebuilt from the spec alone, so a stored trace plus
    its embedded ``config_hash``'s spec is enough to re-run the check
    offline.

    Thresholds: an exposed-comm residual ratio farther than
    :data:`COMM_DRIFT_THRESHOLD` from 1 raises :class:`CommDrift`, but
    only when the absolute discrepancy exceeds :data:`COMM_SHARE_FLOOR`
    of the modeled makespan (a fully-hidden tiny leftover is a 0x ratio
    with no performance impact — not drift); a rank blocking peers for
    more than :data:`STRAGGLER_THRESHOLD` of the wall time raises
    :class:`StragglerRank`; per-resource busy-time spread (max/mean - 1)
    beyond :data:`IMBALANCE_THRESHOLD` raises :class:`LoadImbalance`.
    """
    from repro.core.perfmodel import PerformanceModel

    if isinstance(measured, SpanTracer):
        tracer = measured
    else:
        tracer = SpanTracer(plane="real")
        for s in measured:
            tracer.add(s)

    model_trace = PerformanceModel().step_trace(
        spec.group_job(),
        spec.approach_obj(),
        spec.group_cores,
        spec.layout.batch_size,
        spec.layout.ramp_up,
    )

    spans = tracer.spans()
    measured_makespan = tracer.makespan()
    model_makespan = model_trace.makespan()
    drift = (
        abs(measured_makespan - model_makespan) / model_makespan
        if model_makespan > 0
        else 0.0
    )
    score = max(0.0, 1.0 - drift)

    # per-step-kind residuals: the model emits one representative
    # worker's timeline, so the measured side is the per-resource mean
    resources = {s.resource for s in spans}
    n_resources = max(1, len(resources))
    measured_kinds = {
        k: v / n_resources for k, v in step_kind_seconds(spans).items()
    }
    model_kinds = step_kind_seconds(model_trace)
    residuals = {
        kind: (measured_kinds.get(kind, 0.0), model_kinds.get(kind, 0.0))
        for kind in sorted(set(measured_kinds) | set(model_kinds))
    }

    findings: list[PerfFinding] = []

    # compare *exposed* comm only (the blocking kinds): the model's
    # timeline shows comm as WaitAll — the overlap leftovers — while a
    # measured trace also records the nonblocking posting overhead,
    # which the model prices into its per-round comm term instead
    comm_meas = sum(
        meas
        for kind, (meas, _mod) in residuals.items()
        if kind in ("WaitAll", "RingSendRecv")
    )
    comm_mod = sum(
        mod
        for kind, (_meas, mod) in residuals.items()
        if kind in ("WaitAll", "RingSendRecv")
    )
    comm_ratio = comm_meas / comm_mod if comm_mod > 0 else 1.0
    comm_gap = abs(comm_meas - comm_mod)
    if (
        abs(comm_ratio - 1.0) > COMM_DRIFT_THRESHOLD
        and comm_gap > COMM_SHARE_FLOOR * model_makespan
    ):
        findings.append(
            CommDrift(
                severity=abs(comm_ratio - 1.0),
                ratio=comm_ratio - 1.0,
                detail=(
                    f"comm time {comm_meas:.6g} s is {comm_ratio:.2f}x "
                    f"the modeled {comm_mod:.6g} s"
                ),
            )
        )

    cp = critical_path(tracer, plan=plan_for_spec(spec))
    if cp.imbalance_by_rank and measured_makespan > 0:
        rank, blocked = max(
            cp.imbalance_by_rank.items(), key=lambda kv: kv[1]
        )
        if blocked > STRAGGLER_THRESHOLD * measured_makespan:
            findings.append(
                StragglerRank(
                    severity=blocked,
                    rank=rank,
                    blocked_seconds=blocked,
                    detail=(
                        f"rank {rank} kept peers blocked {blocked:.6g} s "
                        f"({blocked / measured_makespan:.0%} of wall time)"
                    ),
                )
            )

    if len(resources) > 1:
        busy = [tracer.busy_time(r) for r in sorted(resources)]
        mean = sum(busy) / len(busy)
        spread = max(busy) / mean - 1.0 if mean > 0 else 0.0
        if spread > IMBALANCE_THRESHOLD:
            findings.append(
                LoadImbalance(
                    severity=spread,
                    spread=spread,
                    detail=(
                        f"busiest resource is {spread:.0%} above the mean "
                        f"busy time across {len(busy)} resources"
                    ),
                )
            )

    return ConformanceReport(
        config_hash=tracer.config_hash or spec.config_hash(),
        drift=drift,
        score=score,
        measured_makespan=measured_makespan,
        model_makespan=model_makespan,
        residuals=residuals,
        findings=findings,
        critpath=cp,
    )
