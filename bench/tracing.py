"""Benchmark-owned spans: in-memory capture, self times, one write at the end.

A span is ``(name, start, end, value)`` on ``time.perf_counter`` — one
clock for every thread of the process.  Each thread appends to its own
list, so recording takes no lock; :meth:`SpanRecorder.end_pass` collects
the lists of one pass, resolves parents by interval containment (spans of
one thread nest like its call stack, so the innermost enclosing span *is*
the caller) and computes self times: a span's duration minus what its
child spans cover.  Nothing is written until :func:`write_trace`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

#: the thread whose layer times are reported (``run_ranks`` names its
#: threads ``rank{r}``; a pass ends when the slower rank ends, and rank 0's
#: ``transport.wait`` absorbs the imbalance)
REPORTED_THREAD = "rank0"


@dataclass
class ThreadSpans:
    """One thread's spans of one pass, with the derived tree columns."""

    thread: str
    pass_id: int
    spans: list  # (name, start, end, value), sorted by (start, -end)
    parent: list[int] = field(default_factory=list)  # index into spans, -1 = pass
    self_time: list[float] = field(default_factory=list)


@dataclass
class NameStats:
    """Aggregate of every span of one name on one thread of one pass."""

    count: int = 0
    total: float = 0.0  # inclusive seconds
    self_time: float = 0.0
    value: float = 0.0  # sum of the spans' payload (bytes for sends)


class SpanRecorder:
    """Collects spans from every thread of a traced pass."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: list[tuple[str, list]] = []

    def add(self, name: str, start: float, end: float, value: float = 0) -> None:
        try:
            spans = self._local.spans
        except AttributeError:
            spans = self._local.spans = []
            with self._lock:
                self._open.append((threading.current_thread().name, spans))
        spans.append((name, start, end, value))

    def extend(self, thread: str, spans: list) -> None:
        """Merge spans another tracer captured on ``thread`` (same clock)."""
        with self._lock:
            for name, target in self._open:
                if name == thread:
                    target.extend(spans)
                    return
            self._open.append((thread, list(spans)))

    def end_pass(self, pass_id: int) -> dict[str, ThreadSpans]:
        """Close the pass: returns its per-thread spans with self times.

        Rank threads live for one pass, so their lists are complete; the
        calling thread's list is cut here and starts empty for the next.
        """
        with self._lock:
            taken, self._open = self._open, []
        self._local.__dict__.pop("spans", None)
        return {
            thread: _resolve(thread, pass_id, spans) for thread, spans in taken
        }


def _resolve(thread: str, pass_id: int, spans: list) -> ThreadSpans:
    spans = sorted(spans, key=lambda s: (s[1], -s[2]))
    n = len(spans)
    parent = [-1] * n
    covered = [0.0] * n
    stack: list[int] = []
    for i, (_, start, end, _v) in enumerate(spans):
        while stack and spans[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            parent[i] = stack[-1]
            covered[stack[-1]] += end - start
        stack.append(i)
    self_time = [s[2] - s[1] - c for s, c in zip(spans, covered)]
    return ThreadSpans(thread, pass_id, spans, parent, self_time)


def name_stats(ts: ThreadSpans) -> dict[str, NameStats]:
    """Per-name aggregates, plus ``child@parent`` keys for nested names.

    ``engine.apply@poisson.solve`` counts the sweeps of the Poisson
    solver; ``transport.send@step.PostSend`` the halo messages.
    """
    out: dict[str, NameStats] = {}
    for i, (name, start, end, value) in enumerate(ts.spans):
        keys = [name]
        p = ts.parent[i]
        if p >= 0:
            keys.append(f"{name}@{ts.spans[p][0]}")
        for key in keys:
            st = out.get(key)
            if st is None:
                st = out[key] = NameStats()
            st.count += 1
            st.total += end - start
            st.self_time += ts.self_time[i]
            st.value += value
    return out


def top_level_total(ts: ThreadSpans) -> float:
    """Seconds covered by the thread's outermost spans."""
    return sum(
        s[2] - s[1] for s, p in zip(ts.spans, ts.parent) if p < 0
    )


def write_trace(path, workload: str, passes: list[ThreadSpans]) -> int:
    """Write every recorded span once, as columns; returns the span count.

    Times are seconds since the first span; ``parent`` indexes into the
    same thread-and-pass block (-1: the pass itself).
    """
    names: dict[str, int] = {}
    t0 = min((ts.spans[0][1] for ts in passes if ts.spans), default=0.0)
    blocks = []
    total = 0
    for ts in passes:
        total += len(ts.spans)
        blocks.append({
            "thread": ts.thread,
            "pass": ts.pass_id,
            "name": [names.setdefault(s[0], len(names)) for s in ts.spans],
            "start": [round(s[1] - t0, 7) for s in ts.spans],
            "end": [round(s[2] - t0, 7) for s in ts.spans],
            "parent": ts.parent,
            "value": [s[3] for s in ts.spans],
        })
    doc = {
        "workload": workload,
        "clock": "time.perf_counter, seconds since the first span",
        "names": sorted(names, key=names.get),
        "blocks": blocks,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return total
