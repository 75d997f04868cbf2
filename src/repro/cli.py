"""Command-line interface: regenerate any paper table/figure from a shell.

Usage::

    python -m repro table1
    python -m repro fig2
    python -m repro fig5 --batch-size 8
    python -m repro fig6
    python -m repro fig7
    python -m repro headline
    python -m repro ablation
    python -m repro wholeapp
    python -m repro validate          # quick model-vs-DES cross-check
    python -m repro simscale          # DES events/sec sweep vs rank count
    python -m repro schedule flat-optimized --cores 8 --grids 4 --batch-size 2
    python -m repro chaos --seed 0    # fault-injection survival matrix
    python -m repro mtbf              # Daly checkpoint-cadence sweep @16k cores
    python -m repro trace --approach hybrid-multiple --out trace.json
    python -m repro trace --diff real:sim
    python -m repro timeline --planes real sim model
    python -m repro metrics           # instrumented SCF -> metrics snapshot
    python -m repro plan --cores 16384   # rank every feasible configuration
    python -m repro critpath --plane sim # blame-bucket attribution
    python -m repro doctor            # run -> attribute -> conformance verdict
    python -m repro doctor --delay-rank 2 --strict   # straggler demo

The shared ``--approach/--cores/--grids/--batch-size/--shape`` options
are declared once, from :data:`repro.core.jobspec.CLI_KNOBS`; each
subcommand only names the knobs it takes and their defaults.

Every figure command prints the same rows the tier-1 tests assert the
paper's shape criteria on (``tests/test_analysis.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import (
    ablation_subgroups,
    line_plot,
    fig2_rows,
    fig5_rows,
    fig6_rows,
    fig7_rows,
    format_table,
    headline_numbers,
    table1,
)
from repro.analysis.experiments import FIG7_JOB
from repro.core import (
    ALL_APPROACHES,
    FLAT_OPTIMIZED,
    FDJob,
    PerformanceModel,
    WholeAppModel,
    simulate_fd,
)
from repro.core.jobspec import (
    JobSpec,
    add_spec_cli,
    cli_count,
    cli_type,
    spec_from_args,
)
from repro.core.simrun import _node_mode_for
from repro.grid import GridDescriptor
from repro.util.units import MB
from repro.util.validation import check_nonnegative, check_positive_int

_NAMES = ["flat-original", "flat-optimized", "hybrid-multiple", "hybrid-master-only"]
_SHORT = {"flat-original": "orig", "flat-optimized": "opt",
          "hybrid-multiple": "hyb-mult", "hybrid-master-only": "hyb-master"}


def _cmd_table1(_args: argparse.Namespace) -> str:
    return format_table(["item", "value"], table1(),
                        title="Table I — hardware description of a BG/P node")


def _cmd_fig2(_args: argparse.Namespace) -> str:
    points = fig2_rows()
    return format_table(
        ["message bytes", "bandwidth MB/s"],
        [[p.message_bytes, round(p.bandwidth / MB, 2)] for p in points],
        title="Fig 2 — ping-pong bandwidth between neighbouring nodes",
    )


def _cmd_fig5(args: argparse.Namespace) -> str:
    batching = args.batch_size > 1
    rows = fig5_rows(batching)
    title = (
        f"Fig 5 — speedup, 32 grids of 144^3 "
        f"({'batch-size 8' if batching else 'batching disabled'})"
    )
    if args.plot:
        series = {
            _SHORT[n]: [
                (r.n_cores, r.speedups[n]) for r in rows if n in r.speedups
            ]
            for n in _NAMES
        }
        return line_plot(series, x_log=True, title=title)
    table = [
        [r.n_cores] + [round(r.speedups.get(n, float("nan")), 1) for n in _NAMES]
        for r in rows
    ]
    return format_table(["cores"] + [_SHORT[n] for n in _NAMES], table, title=title)


def _cmd_fig6(_args: argparse.Namespace) -> str:
    rows = fig6_rows()
    table = [
        [r.n_cores]
        + [round(r.times[n], 3) for n in _NAMES]
        + [round(r.flat_comm_mb, 1), round(r.hybrid_comm_mb, 1)]
        for r in rows
    ]
    return format_table(
        ["cores=grids"] + [_SHORT[n] + " s" for n in _NAMES]
        + ["flat MB/node", "hyb MB/node"],
        table,
        title="Fig 6 — Gustafson graph: one 192^3 grid per CPU-core",
    )


def _cmd_fig7(args: argparse.Namespace) -> str:
    rows = fig7_rows()
    title = "Fig 7 — speedup vs flat-original @1k, 2816 grids of 192^3"
    if args.plot:
        series = {
            _SHORT[n]: [(r.n_cores, r.speedups[n]) for r in rows] for n in _NAMES
        }
        return line_plot(series, x_log=True, title=title)
    table = [[r.n_cores] + [round(r.speedups[n], 2) for n in _NAMES] for r in rows]
    return format_table(
        ["cores"] + [_SHORT[n] for n in _NAMES], table, title=title,
    )


def _cmd_headline(_args: argparse.Namespace) -> str:
    h = headline_numbers()
    return format_table(
        ["quantity", "model", "paper"],
        [
            ["speedup vs original @16k cores", f"{h.speedup_vs_original:.2f}", "1.94"],
            ["utilization, original", f"{h.utilization_original:.0%}", "36%"],
            ["utilization, hybrid multiple", f"{h.utilization_hybrid:.0%}", "70%"],
            ["hybrid vs flat optimized", f"{h.hybrid_vs_flat_optimized:.2f}", "~1.10"],
        ],
        title="Section VIII — headline numbers",
    )


def _cmd_ablation(_args: argparse.Namespace) -> str:
    sub, hyb = ablation_subgroups()
    diff = abs(sub.total - hyb.total) / hyb.total
    return (
        "Section VII-A — static sub-groups ablation\n"
        f"  flat + static sub-groups : {sub.total:.4f} s\n"
        f"  hybrid multiple          : {hyb.total:.4f} s\n"
        f"  difference               : {diff:.1%} (paper: identical)"
    )


def _cmd_wholeapp(args: argparse.Namespace) -> str:
    model = WholeAppModel()
    job = FDJob(GridDescriptor((192, 192, 192)), args.grids)
    rows = []
    for cores in (1024, 4096, 16384):
        f = model.original(job, cores).fractions()
        g = model.gains(job, cores)
        rows.append([
            cores, f"{f['fd']:.0%}", f"{f['subspace']:.0%}",
            round(g["fd_only"], 2), round(g["amdahl"], 2), round(g["full"], 2),
        ])
    return format_table(
        ["cores", "FD share", "subspace share", "FD-only", "Amdahl", "full rewrite"],
        rows,
        title=f"Section VIII-A — whole application, {args.grids} bands of 192^3",
    )


def _cmd_validate(args: argparse.Namespace) -> str:
    pm = PerformanceModel()
    job = FDJob(GridDescriptor((48, 48, 48)), 16)
    lines = [
        f"model-vs-DES cross-validation ({args.cores} cores, 16 grids of 48^3):"
    ]
    worst = 0.0
    for a in ALL_APPROACHES:
        b = 4 if a.supports_batching else 1
        model = pm.evaluate(job, a, args.cores, batch_size=b)
        sim = simulate_fd(job, a, args.cores, batch_size=b)
        ratio = model.total / sim.total
        if a.name != "flat-original":
            worst = max(worst, abs(ratio - 1))
        lines.append(
            f"  {a.name:20s} model {model.total * 1e3:8.3f} ms  "
            f"DES {sim.total * 1e3:8.3f} ms  ratio {ratio:5.3f}"
        )
    lines.append(f"worst optimized-approach deviation: {worst:.1%}")
    return "\n".join(lines)


def _cmd_simscale(args: argparse.Namespace) -> str:
    """DES throughput sweep: events/sec and wall time vs rank count."""
    import time

    from repro.core.approaches import approach_by_name

    approach = approach_by_name(args.approach)
    job = FDJob(GridDescriptor(tuple(args.shape)), args.grids)
    rows = []
    for n in args.ranks:
        t0 = time.perf_counter()
        res = simulate_fd(job, approach, n, batch_size=args.batch_size)
        wall = time.perf_counter() - t0
        rows.append([n, res.events, f"{wall:.3f}", f"{res.events / wall:,.0f}"])
    return format_table(
        ["ranks", "events", "wall s", "events/s"],
        rows,
        title=(
            f"DES replay scaling — {args.approach}, {args.grids} grids of "
            f"{'x'.join(str(s) for s in args.shape)}, batch {args.batch_size}"
        ),
    )


def _rejection_line(r) -> str:
    return f"rejected {r.approach} nb={r.n_band_groups}: {r.reason}"


def _cmd_bandpar(args: argparse.Namespace) -> str:
    """Band-group sweep: the planner's best hybrid-multiple batch per nb."""
    from repro.core.jobspec import ProblemSpec
    from repro.core.planner import Planner

    title = (
        f"2D grid x band decomposition — {args.grids} bands of "
        f"{'x'.join(str(s) for s in args.shape)} on {args.cores} cores"
    )
    result = Planner().rank(
        ProblemSpec(shape=tuple(args.shape), n_grids=args.grids),
        args.cores,
        max_groups=args.max_groups,
        approaches=["hybrid-multiple"],
    )
    if not result.choices:
        raise SystemExit("\n".join(
            [f"{title}: no feasible band-group count"]
            + [_rejection_line(r) for r in result.rejected]
        ))
    best_per_nb: dict = {}
    for ch in result.choices:  # fastest first
        best_per_nb.setdefault(ch.spec.layout.n_band_groups, ch)
    rows = [
        [
            nb,
            f"{ch.fd_time * 1e3:.3f}",
            f"{ch.subspace_compute * 1e3:.3f}",
            f"{ch.subspace_ring * 1e3:.3f}",
            f"{ch.predicted_time * 1e3:.3f}",
        ]
        for nb, ch in sorted(best_per_nb.items())
    ]
    table = format_table(
        ["band groups", "FD ms", "GEMM ms", "ring ms", "step ms"],
        rows,
        title=title,
    )
    best = result.best()
    return table + (
        f"\nmodeled best nb = {best.spec.layout.n_band_groups} at "
        f"{args.cores} cores ({best.predicted_time * 1e3:.3f} ms per step)"
    )


def _cmd_plan(args: argparse.Namespace) -> str:
    """Rank every feasible configuration of a problem at a core count."""
    from repro.core.jobspec import ProblemSpec
    from repro.core.planner import Planner

    problem = ProblemSpec(shape=tuple(args.shape), n_grids=args.grids)
    result = Planner().rank(
        problem,
        args.cores,
        max_groups=args.max_groups,
        approaches=[args.approach] if args.approach else None,
        des_top_k=args.des_check,
    )
    headers = ["rank", "approach", "batch", "nb", "FD ms", "subspace ms",
               "step ms"]
    if args.des_check:
        headers.append("DES ms")
    rows = []
    for ch in result.choices[: args.top]:
        lay = ch.spec.layout
        row = [
            ch.rank, lay.approach, lay.batch_size, lay.n_band_groups,
            f"{ch.fd_time * 1e3:.3f}",
            f"{ch.subspace_time * 1e3:.3f}",
            f"{ch.predicted_time * 1e3:.3f}",
        ]
        if args.des_check:
            row.append(
                "-" if ch.des_time is None else f"{ch.des_time * 1e3:.3f}"
            )
        rows.append(row)
    table = format_table(
        headers, rows,
        title=(
            f"planner — {args.grids} grids of "
            f"{'x'.join(str(s) for s in args.shape)} on {args.cores} cores"
        ),
    )
    lines = [table]
    if len(result.choices) > args.top:
        lines.append(
            f"({len(result.choices) - args.top} more feasible choices not shown)"
        )
    lines.extend(_rejection_line(r) for r in result.rejected)
    best = result.best()
    lay = best.spec.layout
    lines.append(
        f"planner best: {lay.approach} batch={lay.batch_size} "
        f"nb={lay.n_band_groups} — {best.predicted_time * 1e3:.3f} ms per "
        f"step (config {best.spec.config_hash()})"
    )
    return "\n".join(lines)


def _cmd_calibrate(args: argparse.Namespace) -> str:
    """Re-run the calibration grid fit against the paper anchors."""
    from repro.analysis.calibration import anchor_error, fit_compute_knobs
    from repro.machine.spec import BGP_SPEC

    result = fit_compute_knobs()
    rows = [
        [f"{t * 1e9:.0f}", e, round(err, 4)] for t, e, err in result.grid
    ]
    table = format_table(
        ["t_point ns", "halo exponent", "anchor error"],
        rows,
        title="calibration grid (sum of squared relative anchor errors)",
    )
    shipped = anchor_error(BGP_SPEC)
    summary = (
        f"\nbest: t_point={result.spec.stencil_point_time * 1e9:.0f} ns, "
        f"exponent={result.spec.halo_compute_exponent} "
        f"(error {result.error:.4f}); shipped spec error {shipped:.4f}"
    )
    return table + summary


def _cmd_schedule(args: argparse.Namespace) -> str:
    """Print the compiled schedule IR for a named approach."""
    from repro.core.approaches import approach_by_name
    from repro.core.schedule import timing_plan

    plan = timing_plan(
        approach_by_name(args.approach),
        GridDescriptor(tuple(args.shape)),
        args.grids,
        args.cores,
        args.batch_size,
        args.ramp_up,
    )
    return plan.describe(args.domain)


def _cmd_chaos(args: argparse.Namespace) -> str:
    """Run the seeded chaos suite and print the survival matrix."""
    from repro.analysis.chaos import run_chaos_suite, suite_passed, survival_matrix

    outcomes = run_chaos_suite(
        seed=args.seed, n_ranks=args.ranks, scf=not args.no_scf,
        controller=args.controller,
        flightrec_dir=getattr(args, "flightrec_dir", None),
    )
    table = survival_matrix(outcomes)
    ok = suite_passed(outcomes)
    verdict = "chaos suite: PASS" if ok else "chaos suite: FAIL"
    out = f"{table}\n{verdict} (seed {args.seed})"
    if getattr(args, "flightrec_dir", None) and args.controller:
        out += f"\nflight-recorder dumps in {args.flightrec_dir}/"
    if not ok:
        raise SystemExit(out)
    return out


def _cmd_mtbf(args: argparse.Namespace) -> str:
    """Daly checkpoint-cadence sweep at paper scale."""
    from repro.analysis.resilience import format_mtbf_table, mtbf_sweep

    job = FDJob(GridDescriptor(tuple(args.shape)), args.grids)
    rows = mtbf_sweep(job, n_cores=args.cores)
    note = (
        f"\n(workload: {args.grids} bands of "
        f"{args.shape[0]}^3 on {args.cores} cores)"
    )
    return format_mtbf_table(rows) + note


def _cmd_trace(args: argparse.Namespace, spec: JobSpec) -> str:
    """Emit a Chrome-trace JSON (or a cross-plane diff) for one config."""
    import json

    from repro.analysis.timeline import step_trace
    from repro.obs.export import chrome_trace, diff_step_kinds, format_diff

    if args.diff:
        a, b = args.diff
        traces = {p: step_trace(spec, p) for p in (a, b)}
        head = (
            f"step-kind seconds, {args.approach} @ {args.cores} cores, "
            f"{args.grids} grids of {'x'.join(map(str, args.shape))}"
        )
        return head + "\n" + format_diff(
            diff_step_kinds(traces[a], traces[b]), a, b
        )
    tracer = step_trace(spec, args.plane)
    payload = json.dumps(chrome_trace(tracer), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        return (
            f"wrote {len(tracer)} spans ({args.plane} plane) to {args.out} — "
            "open in chrome://tracing or ui.perfetto.dev"
        )
    return payload


def _cmd_timeline(args: argparse.Namespace, spec: JobSpec) -> str:
    """ASCII Gantt + utilization panel across planes."""
    from repro.analysis.timeline import timeline_panel

    return timeline_panel(
        spec, tuple(args.planes), ("real", "sim") if args.diff else None
    )


def _cmd_metrics(args: argparse.Namespace) -> str:
    """Run a small instrumented SCF and print the whole-run metrics."""
    import json

    import numpy as np

    from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
    from repro.dft.distributed_scf import DistributedSCF
    from repro.dft.checkpoint import MemoryCheckpointStore
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.export import format_metrics

    registry = MetricsRegistry()
    x, y, z = np.meshgrid(*(np.arange(args.size),) * 3, indexing="ij")
    r2 = sum((c - (args.size - 1) / 2) ** 2 for c in (x, y, z))
    v = 0.05 * r2
    store = MemoryCheckpointStore(metrics=registry)
    spec = JobSpec(
        problem=ProblemSpec(
            shape=(args.size,) * 3, n_grids=args.bands,
            pbc=(False, False, False),
        ),
        layout=LayoutSpec(n_cores=args.ranks),
        runtime=RuntimeSpec(
            tolerance=1e-3, max_iterations=args.iterations
        ),
    )
    DistributedSCF.from_spec(
        spec, v, checkpoint_store=store, metrics=registry
    ).run()
    if args.json:
        return json.dumps(registry.snapshot(), indent=1)
    head = (
        f"metrics — SCF, {args.bands} band(s), {args.ranks} ranks, "
        f"{args.size}^3, <= {args.iterations} iterations"
    )
    return head + "\n" + format_metrics(registry)


def _cmd_critpath(args: argparse.Namespace, spec: JobSpec) -> str:
    """Critical-path blame attribution of one configuration's trace."""
    from repro.analysis.timeline import step_trace
    from repro.obs.critpath import critical_path, plan_for_spec

    result = critical_path(
        step_trace(spec, args.plane), plan=plan_for_spec(spec)
    )
    head = (
        f"critical-path attribution — {args.approach} @ {args.cores} "
        f"cores, {args.grids} grids of {'x'.join(map(str, args.shape))}, "
        f"{args.plane} plane"
    )
    return head + "\n" + result.format()


def _cmd_doctor(args: argparse.Namespace, spec: JobSpec) -> str:
    """One-shot diagnosis: run, attribute, conformance verdict."""
    from repro.core.simrun import simulate_spec
    from repro.obs.conformance import check_conformance
    from repro.obs.spans import SpanTracer

    if args.placement != "auto":
        spec = spec.with_runtime(placement=args.placement)
    fault_plan = None
    if args.delay_rank is not None:
        from repro.transport.faults import FaultPlan

        fault_plan = FaultPlan(
            seed=0, inject={(args.delay_rank, 0): "delay"}, delay=args.delay
        )
    tracer = SpanTracer(plane="sim")
    simulate_spec(spec, fault_plan=fault_plan, step_tracer=tracer)
    report = check_conformance(tracer, spec)
    head = (
        f"doctor — {spec.layout.approach} @ {spec.layout.n_cores} cores, "
        f"{spec.problem.n_grids} grids of "
        f"{'x'.join(map(str, spec.problem.shape))} (DES trace vs model)"
    )
    verdict = (
        "doctor: OK" if not report.findings
        else f"doctor: {len(report.findings)} finding(s)"
    )
    out = "\n".join(
        [head, report.critpath.format(), report.format(), verdict]
    )
    if args.strict and report.findings:
        raise SystemExit(out)
    return out


def _cmd_report(args: argparse.Namespace) -> str:
    """Every experiment in one run — a regenerated EXPERIMENTS digest."""
    sections = [
        _cmd_table1(args),
        _cmd_fig2(args),
        _cmd_fig5(argparse.Namespace(batch_size=1, plot=False)),
        _cmd_fig5(argparse.Namespace(batch_size=8, plot=False)),
        _cmd_fig6(args),
        _cmd_fig7(argparse.Namespace(plot=False)),
        _cmd_ablation(args),
        _cmd_headline(args),
        _cmd_wholeapp(argparse.Namespace(grids=2816)),
        _cmd_validate(argparse.Namespace(cores=32)),
    ]
    banner = (
        "Reproduction report — 'GPAW optimized for Blue Gene/P using "
        "hybrid programming' (IPDPS 2009)\n"
        + "=" * 72
    )
    return banner + "\n\n" + "\n\n".join(sections)


@cli_type
def _des_cores(text: str) -> int:
    """A core count the DES can replay: 1, 2 or whole BG/P nodes."""
    n = check_positive_int(int(text), "cores")
    _node_mode_for(FLAT_OPTIMIZED, n)  # the replay's own rule
    return n


#: a fault-plan seed: an integer >= 0
_seed = cli_type(lambda text: int(check_nonnegative(int(text), "seed")))


def _plane_pair(text: str) -> tuple[str, str]:
    """Parse ``--diff PLANE:PLANE`` into two plane names."""
    from repro.analysis.timeline import PLANES

    planes = tuple(text.split(":"))
    if len(planes) != 2 or not set(planes) <= set(PLANES):
        raise argparse.ArgumentTypeError(
            f"want PLANE:PLANE over {', '.join(PLANES)} (e.g. real:sim), "
            f"got {text!r}"
        )
    return planes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table I: BG/P node description")
    sub.add_parser("fig2", help="Fig 2: bandwidth vs message size")
    p5 = sub.add_parser("fig5", help="Fig 5: speedup, 32 grids of 144^3")
    p5.add_argument("--batch-size", type=int, choices=(1, 8), default=8,
                    help="8 = right panel (default); 1 = left panel")
    p5.add_argument("--plot", action="store_true", help="ASCII chart instead of a table")
    sub.add_parser("fig6", help="Fig 6: Gustafson graph")
    p7 = sub.add_parser("fig7", help="Fig 7: large-job speedup")
    p7.add_argument("--plot", action="store_true", help="ASCII chart instead of a table")
    sub.add_parser("headline", help="Section VIII headline numbers")
    sub.add_parser("ablation", help="Section VII-A sub-groups ablation")
    pw = sub.add_parser("wholeapp", help="Section VIII-A whole-app outlook")
    add_spec_cli(pw, {"grids": 2816})
    pv = sub.add_parser("validate", help="model-vs-DES cross-check")
    pv.add_argument("--cores", type=_des_cores, default=32,
                    help="CPU cores (default 32)")
    sub.add_parser("report", help="all experiments in one run")
    sub.add_parser("calibrate", help="re-fit the compute knobs to the anchors")
    pb = sub.add_parser(
        "bandpar", help="band-group sweep of the 2D grid x band model"
    )
    add_spec_cli(pb, {"cores": 16384, "grids": 2816, "shape": (192, 192, 192)})
    pb.add_argument("--max-groups", type=int, default=8)
    pp = sub.add_parser(
        "plan", help="rank every feasible configuration with the model"
    )
    add_spec_cli(pp, {
        "approach": None, "cores": 16384, "grids": 2816,
        "shape": (192, 192, 192),
    })
    pp.add_argument("--max-groups", type=int, default=8)
    pp.add_argument("--top", type=int, default=10,
                    help="ranked rows to print (default 10)")
    pp.add_argument("--des-check", type=int, default=0, metavar="K",
                    help="DES-replay the top K choices (tractable well "
                         "past a thousand ranks)")
    psc = sub.add_parser(
        "simscale", help="DES throughput sweep: events/sec vs rank count"
    )
    add_spec_cli(psc, {
        "approach": "flat-optimized", "grids": 16, "batch_size": 4,
        "shape": (64, 64, 64), "ramp_up": False,
    })
    psc.add_argument("--ranks", type=_des_cores, nargs="+",
                     default=[8, 64, 512, 4096],
                     help="rank counts to sweep (default: 8 64 512 4096)")
    ps = sub.add_parser(
        "schedule", help="print the compiled schedule IR for an approach"
    )
    ps.add_argument("approach", help="approach name (e.g. flat-optimized)")
    add_spec_cli(ps, {
        "cores": 8, "grids": 4, "batch_size": 1, "shape": (24, 24, 24),
        "ramp_up": False,
    })
    ps.add_argument("--domain", type=int, default=0,
                    help="which rank's step list to print")
    pc = sub.add_parser(
        "chaos", help="seeded fault-injection suite + survival matrix"
    )
    pc.add_argument("--seed", type=_seed, default=0,
                    help="fault-plan seed; identical seeds replay identically")
    pc.add_argument("--ranks", type=int, default=2)
    pc.add_argument("--no-scf", action="store_true",
                    help="skip the (slower) SCF checkpoint-resume scenario")
    pc.add_argument("--controller", action="store_true",
                    help="add RecoveryController scenarios: kill mid-run "
                         "with band groups (nb=2,4), static vs adaptive "
                         "checkpoint cadence")
    pc.add_argument("--flightrec-dir", metavar="DIR", default=None,
                    help="write flight-recorder crash dumps (JSON) from the "
                         "controller scenarios into this directory")
    pm = sub.add_parser(
        "mtbf", help="Daly checkpoint-cadence sweep at paper scale"
    )
    add_spec_cli(pm, {"cores": 16384, "grids": 512, "shape": (128, 128, 128)})

    def _trace_config(p: argparse.ArgumentParser) -> None:
        add_spec_cli(p, {
            "approach": "hybrid-multiple", "cores": 8, "grids": 4,
            "batch_size": 2, "shape": (16, 16, 16), "ramp_up": False,
        })

    pt = sub.add_parser(
        "trace",
        help="emit Chrome-trace JSON of one configuration's schedule steps",
    )
    _trace_config(pt)
    pt.add_argument("--plane", choices=["real", "sim", "model"],
                    default="real",
                    help="which execution plane to trace (default real)")
    pt.add_argument("--out", help="write the JSON here instead of stdout")
    pt.add_argument("--diff", metavar="PLANE:PLANE", type=_plane_pair,
                    help="print per-step-kind deltas between two planes "
                         "(e.g. real:sim) instead of JSON")
    pl = sub.add_parser(
        "timeline", help="ASCII Gantt + utilization panel across planes"
    )
    _trace_config(pl)
    pl.add_argument("--planes", nargs="+", default=["real", "sim"],
                    choices=["real", "sim", "model"],
                    help="planes to render (default: real sim)")
    pl.add_argument("--diff", action="store_true",
                    help="append the real-vs-sim step-kind diff")
    pcp = sub.add_parser(
        "critpath",
        help="critical-path blame attribution of one configuration",
    )
    _trace_config(pcp)
    pcp.add_argument("--plane", choices=["real", "sim", "model"],
                     default="sim",
                     help="which execution plane to attribute (default sim)")
    pd = sub.add_parser(
        "doctor",
        help="run + attribute + model-conformance verdict in one table",
    )
    _trace_config(pd)
    pd.add_argument("--placement", choices=["auto", "cyclic", "spread"],
                    default="auto",
                    help="DES domain-to-rank strategy (default: the spec's)")
    pd.add_argument("--delay-rank", type=int, default=None, metavar="RANK",
                    help="inject a delay fault on this rank's first send "
                         "(straggler demo)")
    pd.add_argument("--delay", type=float, default=0.05,
                    help="injected delay seconds (default 0.05)")
    pd.add_argument("--strict", action="store_true",
                    help="exit nonzero when any finding is raised")
    pme = sub.add_parser(
        "metrics", help="run a small instrumented SCF and dump its metrics"
    )
    pme.add_argument("--ranks", type=cli_count, default=2)
    pme.add_argument("--bands", type=cli_count, default=2)
    pme.add_argument("--size", type=cli_count, default=10,
                     help="grid edge length (size^3 points)")
    pme.add_argument("--iterations", type=cli_count, default=6)
    pme.add_argument("--json", action="store_true",
                     help="machine-readable snapshot (the CI artifact shape)")
    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "fig2": _cmd_fig2,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "headline": _cmd_headline,
    "ablation": _cmd_ablation,
    "wholeapp": _cmd_wholeapp,
    "validate": _cmd_validate,
    "simscale": _cmd_simscale,
    "bandpar": _cmd_bandpar,
    "plan": _cmd_plan,
    "report": _cmd_report,
    "calibrate": _cmd_calibrate,
    "schedule": _cmd_schedule,
    "chaos": _cmd_chaos,
    "mtbf": _cmd_mtbf,
    "metrics": _cmd_metrics,
}

#: the diagnosis commands each trace one JobSpec: ``main`` builds it once
#: from the shared options, so a bad configuration is a usage error.  A
#: run that replays on the DES (``doctor`` always does) is also held to
#: the replay's core-count rule there
_DIAGNOSES = {
    "trace": _cmd_trace,
    "timeline": _cmd_timeline,
    "critpath": _cmd_critpath,
    "doctor": _cmd_doctor,
}


def main(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _DIAGNOSES:
        planes = getattr(args, "planes", None) or [getattr(args, "plane", "sim")]
        try:
            spec = spec_from_args(args)
            if "sim" in planes:
                _node_mode_for(spec.approach_obj(), spec.group_cores)
        except ValueError as exc:
            parser.error(str(exc))
        print(_DIAGNOSES[args.command](args, spec))
    else:
        print(_COMMANDS[args.command](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
