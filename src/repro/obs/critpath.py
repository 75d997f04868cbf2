"""Critical-path attribution over schedule-step traces.

The telemetry plane records *what ran when* (:mod:`repro.obs.spans`);
this module answers *what bound the finish time*.  It reconstructs the
dependency DAG of a trace's :class:`~repro.obs.spans.StepSpan`\\ s —
program order within each worker resource and send→wait message edges
across resources (halo exchanges and band-ring stages alike) — walks
the critical path backwards from the last-ending span, and partitions
the whole wall time into typed **blame buckets**:

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
late remote ``PostSend``) charges the blocked seconds to
the producer's rank in :attr:`CriticalPathResult.imbalance_by_rank` —
the rank with the largest charge is the straggler.  In a balanced run
sends post long before the matching waits release, so the charges are
≈ 0; a delayed rank shows up whether or not the path routes through the
blocked wait.

Cross-resource edges need to know which peer each receive comes from.
Pass the compiled plan (:class:`~repro.core.schedule.SchedulePlan` or
:class:`~repro.core.schedule.BandSchedulePlan`, whose ring stages are
ordinary sends and receives) and the edges resolve
through :func:`~repro.core.schedule.recv_sources` — exact.  Without a
plan, a wait's producer is matched among *all* same-tag sends on other
resources (the latest one ending by the wait's end), which is correct
for symmetric plans and degrades gracefully to program order only.

Attribution reads a :class:`~repro.obs.spans.SpanTracer`'s raw step
records (:meth:`~repro.obs.spans.SpanTracer.records`) into per-span
columns once and walks the DAG on integer indices; a
:class:`~repro.obs.spans.StepSpan` is built only for the spans on the
returned path.  A list of built spans goes through the same columns and
gives the same result, bit for bit.

The same code runs on all three planes: real-engine traces, DES traces
(``simulate_fd(..., step_tracer=...)``) and the model's reconstructed
timeline (:meth:`~repro.core.perfmodel.PerformanceModel.step_trace`,
single resource, where the path is the whole sequential walk and the
buckets reproduce the model's own compute/comm/sync split).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional, Union

from repro.obs.spans import SpanTracer, StepSpan, _step_fields

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


#: a built span's columns, in :class:`_Columns` order
_SPAN_ROW = attrgetter(
    "resource", "worker", "start", "end",
    "step_kind", "grid_ids", "seq", "dim", "direction",
)


class _Columns:
    """One trace as per-span columns, indexed by insertion position.

    Built once from either input kind: a tracer's raw ``(resource,
    step, worker, start, end)`` records, whose step fields are read once
    per step object (the records of one run share the few hundred steps
    of its compiled plans), or built :class:`~repro.obs.spans.StepSpan`\\ s.
    A span object is only made for the indices :meth:`span` is asked for.
    """

    def __init__(self, trace: Union[SpanTracer, Iterable[StepSpan]]):
        if isinstance(trace, SpanTracer):
            self.entries, self.plane = trace.records(), trace.plane
        else:
            self.entries, self.plane = list(trace), None
        fields: dict[int, tuple] = {}  # id(step) -> _step_fields(step)
        rows = []
        append = rows.append
        for e in self.entries:
            if type(e) is tuple:
                step = e[1]
                f = fields.get(id(step))
                if f is None:
                    f = fields[id(step)] = _step_fields(step)
                append((e[0], e[2], e[3], e[4]) + f)
            else:
                append(_SPAN_ROW(e))
        (
            self.resource, self.worker, self.start, self.end,
            self.kind, self.grid_ids, self.seq, self.dim, self.direction,
        ) = ([r[k] for r in rows] for k in range(9))
        del rows, append  # the row tuples: free them before the grouping
        # program order: each resource's span indices, ascending
        self.by_resource: dict[str, list[int]] = {}
        self.owners: dict[str, Optional[int]] = {}
        for i, r in enumerate(self.resource):
            indices = self.by_resource.get(r)
            if indices is None:
                indices = self.by_resource[r] = []
                self.owners[r] = owner_of_resource(r)
            indices.append(i)

    def __len__(self) -> int:
        return len(self.entries)

    def sort_key(self, i: int) -> tuple:
        """:attr:`StepSpan.sort_key` of span ``i``."""
        seq = self.seq[i]
        return (
            self.start[i],
            self.end[i],
            self.resource[i],
            self.kind[i],
            self.worker[i],
            -1 if seq is None else seq,
            self.grid_ids[i],
        )

    def latest(self, cands) -> int:
        """The candidate with the largest ``(end, sort_key)``; the first
        one on a full tie, as ``max`` picks.  ``sort_key`` is built only
        when two ends tie."""
        end = self.end
        it = iter(cands)
        best = next(it)
        best_end = end[best]
        best_key = None
        for c in it:
            e = end[c]
            if e != best_end:
                if e > best_end:
                    best, best_end, best_key = c, e, None
                continue
            if best_key is None:
                best_key = self.sort_key(best)
            key = self.sort_key(c)
            if key > best_key:
                best, best_key = c, key
        return best

    def span(self, i: int) -> StepSpan:
        """Span ``i`` — the entry itself when it already is one."""
        e = self.entries[i]
        if type(e) is not tuple:
            return e
        return StepSpan(
            resource=self.resource[i],
            step_kind=self.kind[i],
            start=self.start[i],
            end=self.end[i],
            plane=self.plane,
            worker=self.worker[i],
            grid_ids=self.grid_ids[i],
            seq=self.seq[i],
            dim=self.dim[i],
            direction=self.direction[i],
        )


def _cross_edges(cols: _Columns, plan) -> dict[int, list[int]]:
    """``wait index -> producer indices`` for every wait in the trace.

    Producers are matched by tag: a ``WaitAll(seq)`` completes the
    ``PostRecv(seq, dim, dir)``\\ s posted before it on the same
    resource, and each receive's producer is the matching ``PostSend``
    on the source owner's resource.  Band-ring stages exchange on a
    ``dim`` of their own, so they match the same way and never a halo
    message.  With repeated invocations in one trace (tags recur), the
    producer chosen is the latest one ending by the wait's end.  Without
    a plan the candidates are every same-tag producer on another
    resource, visited owner by owner in the order the trace first shows
    each owner's tag.
    """
    sources: Optional[dict] = None
    if plan is not None:
        from repro.core.schedule import recv_sources

        sources = recv_sources(plan)

    kind, seq, dim, direction = cols.kind, cols.seq, cols.dim, cols.direction
    resource_of, end = cols.resource, cols.end
    by_resource, owners = cols.by_resource, cols.owners

    # producer index over the whole trace
    sends: dict[tuple, list[int]] = {}  # (owner, seq, dim, dir)
    for resource, rows in by_resource.items():
        owner = owners[resource]
        for i in rows:
            if kind[i] == "PostSend":
                sends.setdefault(
                    (owner, seq[i], dim[i], direction[i]), []
                ).append(i)
    # without a plan a receive's candidates are its tag's per-owner
    # lists, in key creation order: the first of equally late sends wins
    sends_by_tag: dict[tuple, list[list[int]]] = {}  # (seq, dim, dir)
    if sources is None:
        for key, lst in sends.items():
            sends_by_tag.setdefault(key[1:], []).append(lst)

    def latest_by(cands, deadline: float) -> Optional[int]:
        best = None
        best_end = 0.0
        for c in cands:
            e = end[c]
            if e <= deadline and (best is None or e > best_end):
                best, best_end = c, e
        return best

    edges: dict[int, list[int]] = {}
    for resource, rows in by_resource.items():
        owner = owners[resource]
        pending: dict[int, list[int]] = {}  # seq -> posted recvs
        for i in rows:
            k = kind[i]
            if k == "PostRecv":
                pending.setdefault(seq[i], []).append(i)
            elif k == "WaitAll":
                s = seq[i]
                deadline = end[i]
                preds: list[int] = []
                for pr in pending.pop(s, ()):
                    d, dr = dim[pr], direction[pr]
                    if sources is not None:
                        src = sources.get((owner, d, dr))
                        cands = sends.get((src, s, d, dr), ())
                    else:
                        cands = (
                            c
                            for lst in sends_by_tag.get((s, d, dr), ())
                            for c in lst
                            if resource_of[c] != resource
                        )
                    hit = latest_by(cands, deadline)
                    if hit is not None:
                        preds.append(hit)
                if preds:
                    edges[i] = preds
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
    :func:`~repro.core.schedule.recv_sources`.  Both input kinds give
    the same result; a tracer's raw records are read without building
    a :class:`~repro.obs.spans.StepSpan` for any span off the path.
    """
    return _attribute(_Columns(trace), plan)


def _attribute(cols: _Columns, plan) -> CriticalPathResult:
    """:func:`critical_path` of a trace already read into columns."""
    n_spans = len(cols)
    if not n_spans:
        return _empty_result()
    resource_of, kind, start, end = (
        cols.resource, cols.kind, cols.start, cols.end
    )
    by_resource, owners = cols.by_resource, cols.owners
    cross = _cross_edges(cols, plan)

    t0 = min(start)
    t_end = max(end)
    wall = t_end - t0
    buckets = {b: 0.0 for b in BLAME_BUCKETS}
    by_rank: dict[int, float] = {}
    path: list[int] = []

    # straggler attribution: every wait blocked past its arrival by a
    # cross-rank producer charges the blocked seconds to that producer's
    # rank — over the whole DAG, so a straggler is visible even when the
    # critical path happens to stay on the straggler's own resource
    # (e.g. a delayed send stalls the sender and its peers alike)
    imbalance: dict[int, float] = {}
    for wait, preds in cross.items():
        owner = owners[resource_of[wait]]
        binding = cols.latest(preds)
        blocked = min(end[binding], end[wait]) - start[wait]
        src_owner = owners[resource_of[binding]]
        if blocked > 0 and src_owner is not None and src_owner != owner:
            imbalance[src_owner] = imbalance.get(src_owner, 0.0) + blocked

    def blame(i: int, bucket: str, lo: float, hi: float) -> None:
        if hi <= lo:
            return
        buckets[bucket] += hi - lo
        owner = owners[resource_of[i]]
        if owner is not None:
            by_rank[owner] = by_rank.get(owner, 0.0) + (hi - lo)

    cur = cols.latest([i for i, e in enumerate(end) if e == t_end])
    t_hi = end[cur]
    for _ in range(n_spans + 1):
        path.append(cur)
        preds = list(cross.get(cur, ()))
        rows = by_resource[resource_of[cur]]
        idx = bisect_left(rows, cur)
        if idx > 0:
            preds.append(rows[idx - 1])
        binding = cols.latest(preds) if preds else None
        bucket = blame_bucket(kind[cur])
        if binding is None:
            blame(cur, bucket, start[cur], t_hi)
            blame(cur, "wait_imbalance", t0, start[cur])
            break
        release = min(end[binding], t_hi)
        if release > start[cur]:
            # blocked past its start by the producer: the path continues
            # on the producer's side until it released this span
            blame(cur, bucket, release, t_hi)
        else:
            blame(cur, bucket, start[cur], t_hi)
            blame(cur, "wait_imbalance", release, start[cur])
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
        owner = owners[resource_of[path[-1]]]
        if owner is not None and owner in by_rank:
            by_rank[owner] += residual

    path.reverse()
    return CriticalPathResult(
        wall_time=wall,
        buckets=buckets,
        path=[cols.span(i) for i in path],
        by_rank=by_rank,
        imbalance_by_rank=imbalance,
        n_spans=n_spans,
    )
