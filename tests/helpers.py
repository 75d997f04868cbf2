"""Views over library objects that only the tests need."""

from repro.obs.conformance import _busy_time
from repro.obs.critpath import _Columns


def step_sequence(tracer):
    """Per-resource ordered step-kind lists of a ``SpanTracer``.

    The cross-plane invariant: two traces of the same compiled plan (any
    planes) agree on this exactly; only the timestamps differ.
    """
    out: dict[str, list[str]] = {}
    for s in tracer.spans():
        out.setdefault(s.resource, []).append(s.step_kind)
    return out


def resource_spans(tracer, resource):
    """One resource's spans of a ``SpanTracer``, in insertion order."""
    return [s for s in tracer.spans() if s.resource == resource]


def busy_time(tracer, resource):
    """Non-overlapping busy time of one resource, through the body the
    conformance check's ``LoadImbalance`` test uses."""
    cols = _Columns(tracer)
    return _busy_time(cols, cols.by_resource.get(resource, []))


def run_stencil_scenario(monkeypatch, plan, max_retries, timeout):
    """Run the chaos suite's 2-rank stencil scenario under ``plan``.

    Each attempt's receives wait ``timeout`` seconds.  Returns the
    scenario's row, the crash report of every failed attempt and the
    transport of every attempt, both in attempt order.
    """
    from repro.analysis import chaos
    from repro.transport import FaultyTransport, crash_report_from

    reports, transports = [], []

    def report(*args):
        reports.append(crash_report_from(*args))
        return reports[-1]

    class Recorded(FaultyTransport):
        def __init__(self, *args):
            super().__init__(*args)
            transports.append(self)

    monkeypatch.setattr(chaos, "_TIMEOUT", timeout)
    monkeypatch.setattr(chaos, "crash_report_from", report)
    monkeypatch.setattr(chaos, "FaultyTransport", Recorded)
    outcome = chaos._StencilScenario(2).run("scenario", plan, max_retries)
    return outcome, reports, transports
