"""A lock-aware metrics registry shared by every execution plane.

The paper's headline claims are observability claims: attributing
wall-time and message traffic to compute vs. halo exchange vs.
synchronization per rank.  Before this module each subsystem grew its own
ad-hoc counters (``TransportStats`` in the transports, ``FaultPlan``
event lists, per-test tallies); this registry gives them one shared
currency:

* :class:`Counter` — monotonically increasing total (messages, bytes,
  injected faults, transient-failure retries).
* :class:`Gauge` — last-written value (SCF residual, band energy).
* :class:`Histogram` — counts over **fixed log-spaced buckets**
  (checkpoint deposit latency, recovery downtime).  Fixed buckets make
  snapshots mergeable across ranks and runs — the Prometheus contract.

Instruments are identified by ``(name, labels)``; asking the registry for
the same identity twice returns the *same* instrument, so a per-rank
``TransportStats`` view and a snapshot consumer observe one counter, not
two copies.  All mutation is lock-protected (the in-process transport's
rank threads increment concurrently); reads take the same lock, so a
snapshot taken mid-run is internally consistent per instrument.

**Disabled telemetry must cost nothing.**  :data:`NULL_REGISTRY` is a
:class:`NullRegistry` whose instruments are shared no-op singletons —
``inc``/``set``/``observe`` are empty methods, and the registry hands the
same objects back without allocation.  Code paths take a registry
parameter defaulting to ``None``-means-null and never branch on
enabledness themselves.  The benchmark's traced passes run with a live
registry and its untraced passes without, so its
``run.trace_overhead_frac`` bounds the enabled-path cost.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "HISTOGRAM_BOUNDS",
    "resolve_registry",
]

LabelValue = Union[str, int]


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable identity of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Fixed log-spaced histogram bucket upper bounds: three per factor of ten
#: from 1e-6 to 1e3 inclusive.  Every histogram has mergeable buckets (the
#: reason the buckets are fixed rather than adaptive).
HISTOGRAM_BOUNDS = tuple(1e-6 * 10 ** (i / 3) for i in range(28))


class _Instrument:
    """Base: name + labels + the instrument's own lock."""

    __slots__ = ("name", "labels", "_lock")

    kind = "instrument"

    def __init__(self, name: str, labels: Optional[dict] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()

    def describe(self) -> str:
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"{self.name}{{{inner}}}"


class Counter(_Instrument):
    """A monotonically increasing total (thread-safe)."""

    __slots__ = ("_value",)

    kind = "counter"

    def __init__(self, name: str = "", labels=None):
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self.value}


class Gauge(_Instrument):
    """Last-written value (thread-safe)."""

    __slots__ = ("_value",)

    kind = "gauge"

    def __init__(self, name: str = "", labels=None):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self.value}


class Histogram(_Instrument):
    """Counts over fixed log-spaced buckets (thread-safe).

    ``bounds[i]`` (:data:`HISTOGRAM_BOUNDS`) is the inclusive upper edge
    of bucket ``i``; one overflow bucket catches everything above the last
    bound.  ``count``,
    ``sum``, ``min`` and ``max`` ride along so snapshots can report means
    and extremes without keeping samples.
    """

    __slots__ = ("bounds", "_counts", "_count", "_sum", "_min", "_max")

    kind = "histogram"

    def __init__(self, name: str = "", labels=None):
        super().__init__(name, labels)
        self.bounds = HISTOGRAM_BOUNDS
        self._counts = [0] * (len(HISTOGRAM_BOUNDS) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        # bisect_left keeps bounds[i] an *inclusive* upper edge (the
        # Prometheus ``le`` contract): observe(bounds[i]) lands in bucket i.
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "labels": self.labels,
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "bounds": list(self.bounds),
                "buckets": list(self._counts),
            }


class MetricsRegistry:
    """Identity-keyed home of every instrument of one run.

    ``counter``/``gauge``/``histogram`` create on first request and
    return the existing instrument on every later request with the same
    ``(name, labels)`` — callers cache the reference and pay only the
    instrument's own lock per update.  A single registry is meant to span
    all subsystems of a run (transports, checkpoint stores, SCF loop),
    so one :meth:`snapshot` is the whole run's telemetry.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, _Instrument] = {}

    def _get(self, cls, name: str, labels: dict) -> _Instrument:
        if not name:
            raise ValueError("instrument name must be non-empty")
        key = (cls.kind, name, _label_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, labels)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):  # pragma: no cover - defensive
                raise TypeError(
                    f"{name} already registered as {type(inst).__name__}"
                )
            return inst

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: LabelValue) -> Histogram:
        return self._get(Histogram, name, labels)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def value(self, name: str, **labels: LabelValue) -> float:
        """Current value of one counter/gauge (0 if never created)."""
        key_c = ("counter", name, _label_key(labels))
        key_g = ("gauge", name, _label_key(labels))
        with self._lock:
            inst = self._instruments.get(key_c) or self._instruments.get(key_g)
        return inst.value if inst is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of one counter name across all label sets (e.g. all ranks)."""
        return sum(
            i.value for i in self.instruments()
            if i.kind == "counter" and i.name == name
        )

    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument, grouped by kind."""
        out: dict[str, list] = {"counters": [], "gauges": [], "histograms": []}
        for inst in sorted(self.instruments(), key=lambda i: i.describe()):
            out[inst.kind + "s"].append(inst.snapshot())
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled registry: shared no-op singletons, no allocation.

    Instrumented code takes this by default and calls ``inc``/``set``/
    ``observe`` unconditionally — the no-op method call is the entire
    disabled-path cost (the property the bench gate measures).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        return self._gauge

    def histogram(self, name=None, **labels) -> Histogram:
        return self._histogram

    def instruments(self) -> list[_Instrument]:
        return []

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


#: the shared disabled registry — the default of every ``metrics`` param
NULL_REGISTRY = NullRegistry()


def resolve_registry(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """The registry a ``metrics=None`` parameter resolves to (the null)."""
    return metrics if metrics is not None else NULL_REGISTRY
