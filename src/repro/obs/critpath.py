"""Critical-path attribution over schedule-step traces.

The telemetry plane records *what ran when* (:mod:`repro.obs.spans`);
this module answers *what bound the finish time*.  It reconstructs the
dependency DAG of a trace's :class:`~repro.obs.spans.StepSpan`\\ s —
program order within each worker resource, send→wait message edges and
ring-stage edges across resources — walks the critical path backwards
from the last-ending span, and partitions the whole wall time into typed
**blame buckets**:

``interior_compute``
    ``ComputeInterior``/``PartialGemm`` time on the path — the useful
    work bound.
``boundary_compute``
    ``ComputeBoundary``/``ApplyLocalWraps`` (ghost finalization) time.
``exposed_comm``
    Send/receive/wait time the schedule failed to hide.
``wait_imbalance``
    Idle gaps on the path — time no traced step covered (scheduling
    slack, untraced work between steps).
``barrier_skew``
    ``GridBarrier``/``JoinBarrier`` time (thread sync and spawn/join).
``other``
    Free-label spans recorded through the legacy interface.

The bucket totals partition the makespan *exactly* (the float residual
of the telescoping segment sum — a few ulps — is folded into the largest
bucket), which is what lets per-bucket fractions be read as "share of
the iteration".

Straggler identification uses the whole DAG, not just the path: every
``WaitAll`` *blocked* past its arrival by a producer on another rank (a
late remote ``PostSend`` or ring stage) charges the blocked seconds to
the producer's rank in :attr:`CriticalPathResult.imbalance_by_rank` —
the rank with the largest charge is the straggler.  In a balanced run
sends post long before the matching waits release, so the charges are
≈ 0; a delayed rank shows up whether or not the path routes through the
blocked wait.

Cross-resource edges need to know which peer each receive comes from.
Pass the compiled plan (:class:`~repro.core.schedule.SchedulePlan` or
:class:`~repro.core.schedule.BandSchedulePlan`) and the edges resolve
through :func:`~repro.core.schedule.recv_sources` — exact.  Without a
plan, a wait's producer is matched among *all* same-tag sends on other
resources (the latest one ending by the wait's end), which is correct
for symmetric plans and degrades gracefully to program order only.

The same code runs on all three planes: real-engine traces, DES traces
(``simulate_fd(..., step_tracer=...)``) and the model's reconstructed
timeline (:meth:`~repro.core.perfmodel.PerformanceModel.step_trace`,
single resource, where the path is the whole sequential walk and the
buckets reproduce the model's own compute/comm/sync split).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.obs.spans import SpanTracer, StepSpan

__all__ = [
    "BLAME_BUCKETS",
    "CriticalPathResult",
    "blame_bucket",
    "critical_path",
    "owner_of_resource",
    "plan_for_spec",
]

#: the typed blame buckets, in report order
BLAME_BUCKETS = (
    "interior_compute",
    "boundary_compute",
    "exposed_comm",
    "wait_imbalance",
    "barrier_skew",
    "other",
)

_BUCKET_OF = {
    "ComputeInterior": "interior_compute",
    "PartialGemm": "interior_compute",
    "ComputeBoundary": "boundary_compute",
    "ApplyLocalWraps": "boundary_compute",
    "PostSend": "exposed_comm",
    "PostRecv": "exposed_comm",
    "WaitAll": "exposed_comm",
    "RingSendRecv": "exposed_comm",
    "GridBarrier": "barrier_skew",
    "JoinBarrier": "barrier_skew",
}


def blame_bucket(step_kind: str) -> str:
    """The blame bucket a step kind's critical-path time lands in."""
    return _BUCKET_OF.get(step_kind, "other")


#: leading owner token of a resource name: ``rank3.w1`` -> 3,
#: ``bg1.rank0.w0`` -> 1 (the band group — the unit ring edges connect)
_OWNER_RE = re.compile(r"^(?:bg|rank)(\d+)")


def owner_of_resource(resource: str) -> Optional[int]:
    """The rank (FD traces) or band group (ring traces) of a resource."""
    m = _OWNER_RE.match(resource)
    return int(m.group(1)) if m else None


@dataclass
class CriticalPathResult:
    """One trace's critical path and its blame attribution."""

    #: trace makespan (== critical-path length == sum of the buckets)
    wall_time: float
    #: bucket -> seconds; partitions :attr:`wall_time` exactly
    buckets: dict[str, float]
    #: the spans on the critical path, in time order
    path: list[StepSpan] = field(default_factory=list)
    #: rank/group -> critical-path seconds executed there (incl. gaps)
    by_rank: dict[int, float] = field(default_factory=dict)
    #: rank/group -> seconds *other* ranks spent blocked waiting on it,
    #: summed over every wait in the trace (not only path waits)
    imbalance_by_rank: dict[int, float] = field(default_factory=dict)
    #: spans examined (path + off-path)
    n_spans: int = 0

    @property
    def straggler(self) -> Optional[int]:
        """The rank causing the most blocked waiting (None if nobody)."""
        if not self.imbalance_by_rank:
            return None
        rank, blocked = max(
            self.imbalance_by_rank.items(), key=lambda kv: kv[1]
        )
        return rank if blocked > 0.0 else None

    def fraction(self, bucket: str) -> float:
        return (
            self.buckets.get(bucket, 0.0) / self.wall_time
            if self.wall_time > 0
            else 0.0
        )

    def format(self) -> str:
        """Aligned blame table + straggler line (CLI, flight dumps)."""
        lines = [
            f"critical path: {self.wall_time:.6g} s over "
            f"{len(self.path)} steps ({self.n_spans} spans)",
            f"  {'bucket':<18} {'seconds':>12} {'share':>7}",
        ]
        for b in BLAME_BUCKETS:
            sec = self.buckets.get(b, 0.0)
            if sec == 0.0 and b == "other":
                continue
            lines.append(f"  {b:<18} {sec:>12.6g} {self.fraction(b):>6.1%}")
        for rank in sorted(self.by_rank):
            extra = ""
            blocked = self.imbalance_by_rank.get(rank, 0.0)
            if blocked > 0:
                extra = f"  (peers blocked on it {blocked:.6g} s)"
            lines.append(
                f"  rank {rank}: {self.by_rank[rank]:.6g} s on path{extra}"
            )
        s = self.straggler
        if s is not None:
            lines.append(f"  straggler: rank {s}")
        return "\n".join(lines)

    def summary(self) -> dict:
        """JSON-ready digest (flight-recorder dumps embed this)."""
        return {
            "wall_time": self.wall_time,
            "buckets": dict(self.buckets),
            "by_rank": {str(k): v for k, v in sorted(self.by_rank.items())},
            "imbalance_by_rank": {
                str(k): v for k, v in sorted(self.imbalance_by_rank.items())
            },
            "straggler": self.straggler,
            "path_steps": len(self.path),
            "n_spans": self.n_spans,
        }


def plan_for_spec(spec):
    """The compiled FD :class:`~repro.core.schedule.SchedulePlan` a
    :class:`~repro.core.jobspec.JobSpec`'s traces executed.

    The same :func:`~repro.core.schedule.timing_plan` the DES runner
    replays, so traces produced by ``simulate_spec`` or the real engine
    resolve their cross-rank edges exactly.
    """
    from repro.core.schedule import timing_plan

    group_job = spec.group_job()
    return timing_plan(
        spec.approach_obj(),
        group_job.grid,
        group_job.n_grids,
        spec.group_cores,
        spec.layout.batch_size,
        spec.layout.ramp_up,
    )


def _empty_result() -> CriticalPathResult:
    return CriticalPathResult(
        wall_time=0.0, buckets={b: 0.0 for b in BLAME_BUCKETS}
    )


def _cross_edges(
    by_resource: dict[str, list[StepSpan]],
    plan,
) -> dict[int, list[StepSpan]]:
    """``id(wait span) -> producer spans`` for every wait in the trace.

    Producers are matched by tag: a ``WaitAll(seq)`` completes the
    ``PostRecv(seq, dim, dir)``\\ s (or ring stages) posted before it on
    the same resource, and each receive's producer is the matching
    ``PostSend``/``RingSendRecv`` on the source owner's resource.  With
    repeated invocations in one trace (tags recur), the producer chosen
    is the latest one ending by the wait's end.
    """
    sources: Optional[dict] = None
    if plan is not None:
        from repro.core.schedule import recv_sources

        sources = recv_sources(plan)

    # producer indexes over the whole trace
    sends: dict[tuple, list[StepSpan]] = {}  # (owner, seq, dim, dir)
    ring_sends: dict[tuple, list[StepSpan]] = {}  # (owner, seq)
    owners: dict[str, Optional[int]] = {}
    for resource, spans in by_resource.items():
        owner = owners.setdefault(resource, owner_of_resource(resource))
        for s in spans:
            if s.step_kind == "PostSend":
                sends.setdefault(
                    (owner, s.seq, s.dim, s.direction), []
                ).append(s)
            elif s.step_kind == "RingSendRecv":
                ring_sends.setdefault((owner, s.seq), []).append(s)

    def latest_by(cands: Iterable[StepSpan], deadline: float):
        best = None
        for c in cands:
            if c.end <= deadline and (best is None or c.end > best.end):
                best = c
        return best

    edges: dict[int, list[StepSpan]] = {}
    for resource, spans in by_resource.items():
        owner = owners[resource]
        pending: dict[int, list[StepSpan]] = {}  # seq -> posted recvs
        ring_pending: dict[int, int] = {}  # seq -> ring stages posted
        for s in spans:
            if s.step_kind == "PostRecv":
                pending.setdefault(s.seq, []).append(s)
            elif s.step_kind == "RingSendRecv":
                ring_pending[s.seq] = ring_pending.get(s.seq, 0) + 1
            elif s.step_kind == "WaitAll":
                preds: list[StepSpan] = []
                for pr in pending.pop(s.seq, ()):
                    if sources is not None:
                        src = sources.get((owner, pr.dim, pr.direction))
                        cands = sends.get(
                            (src, pr.seq, pr.dim, pr.direction), ()
                        )
                    else:
                        cands = [
                            c
                            for key, lst in sends.items()
                            if key[1:] == (pr.seq, pr.dim, pr.direction)
                            for c in lst
                            if c.resource != resource
                        ]
                    hit = latest_by(cands, s.end)
                    if hit is not None:
                        preds.append(hit)
                if ring_pending.pop(s.seq, 0):
                    if sources is not None:
                        src = sources.get(owner)
                        cands = ring_sends.get((src, s.seq), ())
                    else:
                        cands = [
                            c
                            for (o, seq), lst in ring_sends.items()
                            if seq == s.seq
                            for c in lst
                            if c.resource != resource
                        ]
                    hit = latest_by(cands, s.end)
                    if hit is not None:
                        preds.append(hit)
                if preds:
                    edges[id(s)] = preds
    return edges


def critical_path(
    trace: Union[SpanTracer, Iterable[StepSpan]],
    plan=None,
) -> CriticalPathResult:
    """Compute the critical path and blame attribution of one trace.

    ``trace`` is a :class:`~repro.obs.spans.SpanTracer` or any iterable
    of spans in insertion order (per-resource insertion order *is* the
    program order — the invariant every producer maintains).  ``plan``
    (optional) is the compiled schedule the trace executed; with it,
    cross-rank edges resolve exactly via
    :func:`~repro.core.schedule.recv_sources`.
    """
    spans = trace.spans() if isinstance(trace, SpanTracer) else list(trace)
    if not spans:
        return _empty_result()

    by_resource: dict[str, list[StepSpan]] = {}
    position: dict[int, tuple[str, int]] = {}
    for s in spans:
        row = by_resource.setdefault(s.resource, [])
        position[id(s)] = (s.resource, len(row))
        row.append(s)
    cross = _cross_edges(by_resource, plan)

    t0 = min(s.start for s in spans)
    t_end = max(s.end for s in spans)
    wall = t_end - t0
    buckets = {b: 0.0 for b in BLAME_BUCKETS}
    by_rank: dict[int, float] = {}
    path: list[StepSpan] = []

    # straggler attribution: every wait blocked past its arrival by a
    # cross-rank producer charges the blocked seconds to that producer's
    # rank — over the whole DAG, so a straggler is visible even when the
    # critical path happens to stay on the straggler's own resource
    # (e.g. a delayed send stalls the sender and its peers alike)
    imbalance: dict[int, float] = {}
    span_by_id = {id(s): s for s in spans}
    for wait_id, preds in cross.items():
        wait = span_by_id[wait_id]
        owner = owner_of_resource(wait.resource)
        binding = max(preds, key=lambda p: (p.end, p.sort_key))
        blocked = min(binding.end, wait.end) - wait.start
        src_owner = owner_of_resource(binding.resource)
        if blocked > 0 and src_owner is not None and src_owner != owner:
            imbalance[src_owner] = imbalance.get(src_owner, 0.0) + blocked

    def blame(span: StepSpan, lo: float, hi: float) -> None:
        if hi <= lo:
            return
        buckets[blame_bucket(span.step_kind)] += hi - lo
        owner = owner_of_resource(span.resource)
        if owner is not None:
            by_rank[owner] = by_rank.get(owner, 0.0) + (hi - lo)

    def blame_gap(span: StepSpan, lo: float, hi: float) -> None:
        if hi <= lo:
            return
        buckets["wait_imbalance"] += hi - lo
        owner = owner_of_resource(span.resource)
        if owner is not None:
            by_rank[owner] = by_rank.get(owner, 0.0) + (hi - lo)

    cur = max(spans, key=lambda s: (s.end, s.sort_key))
    t_hi = cur.end
    for _ in range(len(spans) + 1):
        path.append(cur)
        resource, idx = position[id(cur)]
        preds = list(cross.get(id(cur), ()))
        if idx > 0:
            preds.append(by_resource[resource][idx - 1])
        binding = (
            max(preds, key=lambda p: (p.end, p.sort_key)) if preds else None
        )
        if binding is None:
            blame(cur, cur.start, t_hi)
            blame_gap(cur, t0, cur.start)
            break
        release = min(binding.end, t_hi)
        if release > cur.start:
            # blocked past its start by the producer: the path continues
            # on the producer's side until it released this span
            blame(cur, release, t_hi)
        else:
            blame(cur, cur.start, t_hi)
            blame_gap(cur, release, cur.start)
        cur, t_hi = binding, release

    # fold the telescoping-sum float residual (a few ulps) into the
    # largest bucket so the totals partition the makespan *exactly*.  A
    # float fold can round away from the target (ties-to-even), so the
    # buckets move onto the makespan's ulp grid, where every partial sum
    # of them is exact, and the residual is folded in whole ulps.
    residual = wall - sum(buckets.values())
    if residual != 0.0:
        ulp = math.ulp(wall)
        units = {b: round(v / ulp) for b, v in buckets.items()}
        top = max(buckets, key=lambda b: buckets[b])
        units[top] += round(wall / ulp) - sum(units.values())
        buckets = {b: n * ulp for b, n in units.items()}
        owner = owner_of_resource(path[-1].resource) if path else None
        if owner is not None and owner in by_rank:
            by_rank[owner] += residual

    path.reverse()
    return CriticalPathResult(
        wall_time=wall,
        buckets=buckets,
        path=path,
        by_rank=by_rank,
        imbalance_by_rank=imbalance,
        n_spans=len(spans),
    )
