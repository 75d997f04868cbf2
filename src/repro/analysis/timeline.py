"""Timeline panel: one configuration's step trace from any plane.

The three planes emit the same :class:`~repro.obs.spans.StepSpan` schema —
the functional engine via :func:`~repro.obs.spans.engine_hook`, the DES
via ``simulate_spec(step_tracer=...)``, the analytic model via
:meth:`~repro.core.perfmodel.PerformanceModel.step_trace` — so this module
only has to hand each plane the same :class:`~repro.core.jobspec.JobSpec`
and pass the traces to the exporters.  :func:`step_trace` is the single
builder the ``repro trace`` / ``timeline`` / ``critpath`` commands (and
the CI artifact) use.

Every plane traces the invocation :func:`~repro.core.simrun.simulate_spec`
replays: ``spec.group_job()`` on ``spec.group_cores``.  The real and
simulated planes execute the same compiled plan, so with
``group_cores >= 4`` (where the timing planes' worker count equals the
functional plane's full thread team) the per-worker step-kind *sequences*
are identical across planes — the cross-plane consistency tests assert
exactly that.  The model plane traces only the representative worker
``rank0.w0``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.jobspec import JobSpec
from repro.obs.export import (
    ascii_gantt,
    diff_step_kinds,
    format_diff,
    format_utilization,
    utilization_report,
)
from repro.obs.spans import SpanTracer, engine_hook

__all__ = ["PLANES", "step_trace", "timeline_panel"]

PLANES = ("real", "sim", "model")


def _real_trace(spec: JobSpec) -> SpanTracer:
    """Run the functional engine for real and trace every schedule step.

    Scatters the group job's random grids (seeded from
    ``spec.runtime.seed``) over ``spec.group_cores`` domains' rank
    threads and applies the distributed Laplacian once with
    :func:`~repro.obs.spans.engine_hook` attached (raw
    ``time.perf_counter`` timestamps — exporters normalize).
    """
    from repro.core.engine import DistributedStencil
    from repro.grid.array import scatter
    from repro.grid.decompose import Decomposition
    from repro.grid.halo import HaloSpec
    from repro.stencil.coefficients import laplacian_coefficients
    from repro.transport.inproc import run_ranks

    approach = spec.approach_obj()
    job = spec.group_job()
    gd = job.grid
    decomp = Decomposition(gd, approach.domains_for(spec.group_cores))
    coeffs = laplacian_coefficients(2, spacing=gd.spacing)
    engine = DistributedStencil(decomp, coeffs)
    halo = HaloSpec(coeffs.radius)
    seed = spec.runtime.seed
    blocks = {
        gid: scatter(gd.random(seed=seed + gid), decomp, halo)
        for gid in range(job.n_grids)
    }
    tracer = SpanTracer(plane="real")

    def rank_fn(ep):
        return engine.apply(
            ep,
            {gid: b[ep.rank] for gid, b in blocks.items()},
            approach=approach,
            batch_size=spec.layout.batch_size,
            ramp_up=spec.layout.ramp_up,
            on_step=engine_hook(tracer, ep.rank),
        )

    run_ranks(decomp.n_domains, rank_fn)
    return tracer


def step_trace(spec: JobSpec, plane: str) -> SpanTracer:
    """Trace ``spec`` on the named plane (one of :data:`PLANES`).

    The returned tracer carries ``spec.config_hash()``, so exported
    artifacts from different planes of the same run are mechanically
    linkable.
    """
    if plane == "real":
        tracer = _real_trace(spec)
    elif plane == "sim":
        from repro.core.simrun import simulate_spec

        tracer = SpanTracer(plane="sim")
        simulate_spec(spec, step_tracer=tracer)
    elif plane == "model":
        from repro.core.perfmodel import PerformanceModel

        tracer = PerformanceModel().step_trace(
            spec.group_job(),
            spec.approach_obj(),
            spec.group_cores,
            spec.layout.batch_size,
            spec.layout.ramp_up,
        )
    else:
        raise ValueError(f"unknown plane {plane!r}; expected one of {PLANES}")
    tracer.config_hash = spec.config_hash()
    return tracer


def timeline_panel(
    spec: JobSpec,
    planes: Sequence[str] = ("real", "sim"),
    diff: Optional[tuple[str, str]] = None,
) -> str:
    """Gantt + utilization for each requested plane, one text panel.

    ``diff=("real", "sim")`` appends the per-step-kind time comparison
    between two planes, tracing either one that ``planes`` left out.
    """
    traces = {p: step_trace(spec, p) for p in planes}
    header = (
        f"timeline — {spec.layout.approach}, {spec.layout.n_cores} cores, "
        f"{spec.problem.n_grids} grids of "
        f"{'x'.join(str(s) for s in spec.problem.shape)}, "
        f"batch {spec.layout.batch_size}"
    )
    sections = [header]
    for p, tr in traces.items():
        sections.append(
            f"[{p}]\n"
            + ascii_gantt(tr, normalize=True)
            + "\n"
            + format_utilization(utilization_report(tr), title=f"{p} utilization")
        )
    if diff is not None:
        a, b = diff
        for name in (a, b):
            if name not in traces:
                traces[name] = step_trace(spec, name)
        sections.append(
            f"step-kind diff ({a} vs {b})\n"
            + format_diff(diff_step_kinds(traces[a], traces[b]), a, b)
        )
    return "\n\n".join(sections)
