"""Trace exporters: Chrome tracing JSON, ASCII Gantt, utilization report.

Every consumer here takes "a trace" — a :class:`~repro.obs.spans
.SpanTracer` or any iterable of :class:`~repro.obs.spans.StepSpan` — so
real, simulated and modeled traces, step traces and DES activity traces
alike, all export through the same three views:

* :func:`chrome_trace` — the ``chrome://tracing`` / Perfetto JSON array
  format.  Step metadata rides in ``args`` at full float precision, so
  :func:`parse_chrome_trace` round-trips the exact span set (the ``ts``/
  ``dur`` microsecond fields are for the viewer, not the source of
  truth).
* :func:`ascii_gantt` — the terminal Gantt chart.
* :func:`utilization_report` — the paper's compute/comm/sync breakdown
  and utilization %, computable from any plane's trace (the acceptance
  check diffs a real-run report against the perfmodel's).
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Optional, Union

from repro.obs.spans import SpanTracer, StepSpan, step_category

__all__ = [
    "ascii_gantt",
    "chrome_trace",
    "parse_chrome_trace",
    "utilization_report",
    "format_utilization",
    "diff_step_kinds",
    "format_diff",
    "format_metrics",
]

_RESOURCE_RE = re.compile(r"^rank(\d+)\.w(\d+)$")


def _as_spans(trace) -> list:
    if isinstance(trace, SpanTracer):
        return trace.spans()
    return list(trace)


def step_kind_seconds(trace) -> dict[str, float]:
    """Summed span seconds per step kind, across all resources."""
    out: dict[str, float] = {}
    for s in _as_spans(trace):
        out[s.step_kind] = out.get(s.step_kind, 0.0) + s.duration
    return out


# -- ASCII Gantt ---------------------------------------------------------------
def ascii_gantt(
    trace,
    width: int = 72,
    resources: Optional[Iterable[str]] = None,
    normalize: bool = False,
) -> str:
    """Render a trace as an ASCII Gantt chart.

    One row per resource, time flowing right; overlapping spans merge
    visually.  ``normalize=True`` shifts the time axis so the earliest
    span starts at zero — required for real-engine traces whose raw
    timestamps are ``time.perf_counter`` values (the DES clock already
    starts at zero).
    """
    spans = _as_spans(trace)
    rows = (
        list(resources)
        if resources is not None
        else sorted({s.resource for s in spans})
    )
    t0 = min((s.start for s in spans), default=0.0) if normalize else 0.0
    total = max((s.end - t0 for s in spans), default=0.0)
    if total <= 0 or not rows:
        return "(empty trace)"
    name_w = max(len(r) for r in rows)
    by_resource: dict[str, list] = {r: [] for r in rows}
    for s in spans:
        if s.resource in by_resource:
            by_resource[s.resource].append(s)
    lines = []
    for r in rows:
        cells = [" "] * width
        for s in sorted(by_resource[r], key=lambda s: s.sort_key):
            lo = int((s.start - t0) / total * (width - 1))
            hi = max(lo, int((s.end - t0) / total * (width - 1)))
            for i in range(lo, hi + 1):
                cells[i] = "#"
        lines.append(f"{r.rjust(name_w)} |{''.join(cells)}|")
    lines.append(f"{' ' * name_w} 0{'~'.center(width - 2)}{total:.3g}s")
    return "\n".join(lines)


# -- Chrome tracing JSON -------------------------------------------------------
def _pid_tid(resource: str, fallback: int) -> tuple[int, int]:
    """Map a resource name onto Chrome's (process, thread) rows.

    ``rank3.w1`` becomes pid 3 / tid 1 so the viewer groups workers under
    their rank; anything else gets its own process row.
    """
    m = _RESOURCE_RE.match(resource)
    if m:
        return int(m.group(1)), int(m.group(2))
    return 10_000 + fallback, 0


def chrome_trace(trace) -> dict:
    """Export a trace as ``chrome://tracing`` JSON (object format).

    Emits one complete ("X") event per span with microsecond ``ts``/
    ``dur`` relative to the earliest span, plus process/thread metadata
    naming the rows.  The exact raw ``start``/``end`` floats and all
    schedule-IR tags travel in ``args`` — :func:`parse_chrome_trace`
    rebuilds the span set from those, losslessly.
    """
    spans = sorted(_as_spans(trace), key=lambda s: s.sort_key)
    t0 = min((s.start for s in spans), default=0.0)
    resources = sorted({s.resource for s in spans})
    events: list[dict] = []
    config_hash = getattr(trace, "config_hash", None)
    if config_hash:
        # metadata event ("M"): parse_chrome_trace skips it, so the
        # span round-trip stays lossless while the file still names the
        # JobSpec configuration that produced it
        events.append(
            {
                "ph": "M",
                "name": "job_config",
                "pid": 0,
                "tid": 0,
                "args": {"config_hash": config_hash},
            }
        )
    pids: dict[str, tuple[int, int]] = {}
    for i, r in enumerate(resources):
        pid, tid = _pid_tid(r, i)
        pids[r] = (pid, tid)
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": r.split(".")[0]},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": r},
            }
        )
    for s in spans:
        pid, tid = pids[s.resource]
        args = {
            "resource": s.resource,
            "start": s.start,
            "end": s.end,
            "plane": s.plane,
            "worker": s.worker,
            "grid_ids": list(s.grid_ids),
        }
        for key in ("seq", "dim", "direction"):
            val = getattr(s, key)
            if val is not None:
                args[key] = val
        events.append(
            {
                "ph": "X",
                "name": s.step_kind,
                "cat": s.category,
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def parse_chrome_trace(data: Union[dict, str]) -> list[StepSpan]:
    """Rebuild the exact :class:`StepSpan` set from Chrome-trace JSON.

    Inverse of :func:`chrome_trace` (metadata events are skipped); the
    spans come back in the exporter's deterministic sort order.
    """
    if isinstance(data, str):
        data = json.loads(data)
    events = data["traceEvents"] if isinstance(data, dict) else data
    spans: list[StepSpan] = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = ev["args"]
        spans.append(
            StepSpan(
                resource=args["resource"],
                step_kind=ev["name"],
                start=args["start"],
                end=args["end"],
                plane=args.get("plane", "real"),
                worker=args.get("worker", 0),
                grid_ids=tuple(args.get("grid_ids", ())),
                seq=args.get("seq"),
                dim=args.get("dim"),
                direction=args.get("direction"),
            )
        )
    return spans


# -- utilization report --------------------------------------------------------
def utilization_report(trace) -> dict:
    """The paper's compute/comm/sync breakdown from any plane's trace.

    Returns makespan, summed seconds per category and per step kind, and
    the Table-style percentages: each category's share of the total
    resource-time (``n_resources * makespan``).  ``utilization`` is the
    compute share — the figure the paper reports going 36% → 70%.
    """
    spans = _as_spans(trace)
    if not spans:
        return {
            "makespan": 0.0,
            "resources": [],
            "categories": {"compute": 0.0, "comm": 0.0, "sync": 0.0, "other": 0.0},
            "fractions": {"compute": 0.0, "comm": 0.0, "sync": 0.0, "other": 0.0},
            "idle": 0.0,
            "utilization": 0.0,
            "step_kinds": {},
        }
    t0 = min(s.start for s in spans)
    makespan = max(s.end for s in spans) - t0
    resources = sorted({s.resource for s in spans})
    categories = {"compute": 0.0, "comm": 0.0, "sync": 0.0, "other": 0.0}
    step_kinds = step_kind_seconds(spans)
    for s in spans:
        categories[step_category(s.step_kind)] += s.duration
    wall = makespan * len(resources)  # total resource-time available
    fractions = {
        k: (v / wall if wall > 0 else 0.0) for k, v in categories.items()
    }
    busy = sum(categories.values())
    return {
        "makespan": makespan,
        "resources": resources,
        "categories": categories,
        "fractions": fractions,
        "idle": max(0.0, 1.0 - (busy / wall if wall > 0 else 0.0)),
        "utilization": fractions["compute"],
        "step_kinds": dict(sorted(step_kinds.items())),
    }


def format_utilization(report: dict, title: str = "utilization") -> str:
    """Render a :func:`utilization_report` as the paper-style table."""
    lines = [
        f"{title}: makespan {report['makespan']:.6g}s over "
        f"{len(report['resources'])} worker(s)"
    ]
    for cat in ("compute", "comm", "sync", "other"):
        secs = report["categories"][cat]
        if cat == "other" and secs == 0.0:
            continue
        lines.append(
            f"  {cat:>8}: {secs:10.6g}s  {report['fractions'][cat] * 100:6.2f}%"
        )
    lines.append(f"  {'idle':>8}: {'':>10}   {report['idle'] * 100:6.2f}%")
    lines.append(f"  utilization {report['utilization'] * 100:.2f}%")
    return "\n".join(lines)


# -- metrics snapshot ----------------------------------------------------------
def format_metrics(snapshot) -> str:
    """Render a registry snapshot (or a registry) as aligned text.

    Accepts a :class:`~repro.obs.metrics.MetricsRegistry` or the dict its
    ``snapshot()`` returns — the shape the CI artifact stores.
    """
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()

    def describe(entry: dict) -> str:
        labels = entry.get("labels") or {}
        if not labels:
            return entry["name"]
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return f"{entry['name']}{{{inner}}}"

    lines: list[str] = []
    for c in snapshot.get("counters", ()):
        lines.append(f"counter    {describe(c):<44} {c['value']:.6g}")
    for g in snapshot.get("gauges", ()):
        lines.append(f"gauge      {describe(g):<44} {g['value']:.6g}")
    for h in snapshot.get("histograms", ()):
        count = h["count"]
        mean = h["sum"] / count if count else 0.0
        extremes = (
            f" min={h['min']:.6g} max={h['max']:.6g}" if count else ""
        )
        lines.append(
            f"histogram  {describe(h):<44} count={count} "
            f"sum={h['sum']:.6g} mean={mean:.6g}{extremes}"
        )
    return "\n".join(lines) if lines else "(no instruments)"


# -- cross-plane diffing -------------------------------------------------------
def diff_step_kinds(trace_a, trace_b) -> dict[str, dict]:
    """Per-step-kind time totals of two traces, with deltas.

    The ``repro trace --diff real:sim`` backend: both traces should come
    from the same compiled plan, so the step-kind *sets* match and the
    interesting output is where the time went differently (e.g. real
    ``WaitAll`` exceeding simulated — an un-modeled pipeline hole).
    """
    ka = step_kind_seconds(trace_a)
    kb = step_kind_seconds(trace_b)
    out: dict[str, dict] = {}
    for kind in sorted(set(ka) | set(kb)):
        a, b = ka.get(kind, 0.0), kb.get(kind, 0.0)
        out[kind] = {
            "a": a,
            "b": b,
            "delta": a - b,
            "ratio": (a / b) if b > 0 else None,
        }
    return out


def format_diff(
    diff: dict[str, dict], name_a: str = "a", name_b: str = "b"
) -> str:
    """Render :func:`diff_step_kinds` as an aligned table."""
    lines = [
        f"{'step kind':<18} {name_a:>12} {name_b:>12} {'delta':>12} {'ratio':>8}"
    ]
    for kind, d in diff.items():
        ratio = f"{d['ratio']:.3f}" if d["ratio"] is not None else "-"
        lines.append(
            f"{kind:<18} {d['a']:>12.6g} {d['b']:>12.6g} "
            f"{d['delta']:>+12.6g} {ratio:>8}"
        )
    return "\n".join(lines)
