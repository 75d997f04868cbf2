"""repro.obs — the unified telemetry plane.

One metrics registry and one span schema shared by all three execution
planes (real engine, DES simulation, analytic model), plus the exporters
that turn any plane's trace into Chrome-tracing JSON, an ASCII Gantt, or
the paper's compute/comm/sync utilization breakdown.  On top of the raw
telemetry sits the attribution layer: critical-path blame buckets
(:mod:`repro.obs.critpath`), measured-vs-model drift detection
(:mod:`repro.obs.conformance`) and the crash-coupled flight recorder
(:mod:`repro.obs.flightrec`).  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.conformance import (
    CommDrift,
    ConformanceReport,
    LoadImbalance,
    PerfFinding,
    StragglerRank,
    check_conformance,
)
from repro.obs.critpath import (
    BLAME_BUCKETS,
    CriticalPathResult,
    blame_bucket,
    critical_path,
)
from repro.obs.export import (
    ascii_gantt,
    chrome_trace,
    diff_step_kinds,
    format_diff,
    format_metrics,
    format_utilization,
    parse_chrome_trace,
    utilization_report,
)
from repro.obs.flightrec import FlightRecorder, IterationRecord
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    resolve_registry,
)
from repro.obs.spans import (
    COMM_STEPS,
    COMPUTE_STEPS,
    SYNC_STEPS,
    SpanTracer,
    StepSpan,
    engine_hook,
    step_category,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "resolve_registry",
    "StepSpan",
    "SpanTracer",
    "engine_hook",
    "step_category",
    "COMM_STEPS",
    "COMPUTE_STEPS",
    "SYNC_STEPS",
    "ascii_gantt",
    "chrome_trace",
    "parse_chrome_trace",
    "utilization_report",
    "format_utilization",
    "diff_step_kinds",
    "format_diff",
    "format_metrics",
    "BLAME_BUCKETS",
    "CriticalPathResult",
    "blame_bucket",
    "critical_path",
    "CommDrift",
    "ConformanceReport",
    "LoadImbalance",
    "PerfFinding",
    "StragglerRank",
    "check_conformance",
    "FlightRecorder",
    "IterationRecord",
]
