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
