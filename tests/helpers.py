"""Views over library objects that only the tests need."""


def step_sequence(tracer):
    """Per-resource ordered step-kind lists of a ``SpanTracer``.

    The cross-plane invariant: two traces of the same compiled plan (any
    planes) agree on this exactly; only the timestamps differ.
    """
    out: dict[str, list[str]] = {}
    for s in tracer.spans():
        out.setdefault(s.resource, []).append(s.step_kind)
    return out
