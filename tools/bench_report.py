"""Measure the fused/batched stencil kernels against the seed baseline.

Times three executions of the same radius-2 Laplacian work — the seed
per-grid kernel pattern (whole-sum expression trees, fresh output array
every call, exactly what ``DistributedStencil.apply`` did before the
workspace arena), the fused scratch-based per-grid kernel, and
``apply_stencil_batch`` — on a 64-grid batch of 32^3 blocks, and writes
the rates plus the headline speedup to ``BENCH_kernels.json`` in the
repository root.  Run from the repository root::

    PYTHONPATH=src python tools/bench_report.py            # full run
    PYTHONPATH=src python tools/bench_report.py --smoke    # CI-sized run

The acceptance bar for the zero-allocation PR is ``batched_speedup >=
1.5`` on the full run; ``--smoke`` shrinks the batch and repeat counts so
CI only checks that the harness works, not the ratio.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

import numpy as np

from repro.core import (
    DistributedStencil,
    FLAT_OPTIMIZED,
    clear_plan_cache,
    compile_schedule,
)
from repro.grid import Decomposition, GridDescriptor, HaloSpec, scatter
from repro.stencil import (
    apply_stencil_batch,
    apply_stencil_padded,
    laplacian_coefficients,
)
from repro.transport import InprocTransport


def seed_kernel_with_alloc(padded, coeffs):
    """The seed per-grid step, verbatim: the engine allocated a fresh
    zeroed padded output grid per call and ran the one-temporary-per-term
    kernel into its (strided) interior view."""
    w = coeffs.radius
    out_grid = np.zeros(padded.shape, dtype=padded.dtype)
    out = out_grid[w:-w, w:-w, w:-w]
    np.multiply(padded[w:-w, w:-w, w:-w], coeffs.center, out=out)
    for axis in range(3):
        for dist in range(1, w + 1):
            weight = coeffs.weights[dist - 1]
            lo = [slice(w, -w)] * 3
            hi = [slice(w, -w)] * 3
            lo[axis] = slice(w - dist, -w - dist)
            hi[axis] = slice(w + dist, padded.shape[axis] - w + dist or None)
            out += weight * padded[tuple(lo)]
            out += weight * padded[tuple(hi)]
    return out


def best_rate(fn, points, repeats):
    """Best-of-N Mpoints/s (best-of is standard for microbenchmarks: it
    estimates the undisturbed run, which is what machine comparison
    wants)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return points / best / 1e6


def measure(n=32, batch=64, repeats=5):
    coeffs = laplacian_coefficients(2)
    rng = np.random.default_rng(0)
    stack = rng.standard_normal((batch, n + 4, n + 4, n + 4))
    out_stack = np.empty((batch, n, n, n))
    scratch = np.empty((n, n, n))
    points = batch * n**3

    def run_seed():
        return [seed_kernel_with_alloc(stack[g], coeffs) for g in range(batch)]

    def run_fused_per_grid():
        for g in range(batch):
            apply_stencil_padded(stack[g], coeffs, out=out_stack[g],
                                 scratch=scratch)

    def run_batched():
        apply_stencil_batch(stack, coeffs, out_stack=out_stack,
                            scratch=scratch)

    # correctness cross-check before timing anything (the fused order
    # differs from the seed's by last-bit rounding, hence the atol)
    want = np.stack(run_seed())
    run_batched()
    np.testing.assert_allclose(out_stack, want, rtol=1e-12, atol=1e-12)

    rates = {
        "seed_per_grid": best_rate(run_seed, points, repeats),
        "fused_per_grid": best_rate(run_fused_per_grid, points, repeats),
        "batched": best_rate(run_batched, points, repeats),
    }
    return {
        "block": [n, n, n],
        "batch": batch,
        "repeats": repeats,
        "mpoints_per_s": {k: round(v, 1) for k, v in rates.items()},
        "batched_speedup": round(rates["batched"] / rates["seed_per_grid"], 3),
        "fused_speedup": round(
            rates["fused_per_grid"] / rates["seed_per_grid"], 3
        ),
    }


def measure_orthogonalization(n=32, bands=64, repeats=3):
    """Naive vs blocked-GEMM orthogonalization of one band set.

    ``naive`` is the library's modified Gram-Schmidt — the per-pair
    BLAS-1 formulation (one ``vdot`` + one axpy per band pair, a Python
    loop over ``bands^2/2`` pairs).  ``blocked`` is the Löwdin path the
    band-parallel SCF uses: the symmetric blocked-GEMM overlap matrix
    (lower triangle + reflect) plus one GEMM rotation.  Both orthonormalize
    the same random band set; rates count processed state points.  The
    acceptance bar for the band-parallelization PR is ``ortho_speedup >=
    1.5`` on the full run (32^3 x 64 bands).
    """
    from repro.dft.orthogonalize import gram_schmidt, lowdin, overlap_matrix

    gd = GridDescriptor((n, n, n))
    rng = np.random.default_rng(1)
    states = rng.standard_normal((bands, n, n, n))
    points = bands * n ** 3

    def run_naive():
        return gram_schmidt(gd, states)

    def run_blocked():
        return lowdin(gd, states)

    # correctness cross-check before timing: both paths must produce an
    # orthonormal set, and the blocked overlap must be bitwise symmetric
    eye = np.eye(bands)
    for out in (run_naive(), run_blocked()):
        s = overlap_matrix(gd, out)
        np.testing.assert_allclose(s, eye, atol=1e-10)
        assert (s == s.conj().T).all(), "overlap matrix not bitwise symmetric"

    rates = {
        "naive_gram_schmidt": best_rate(run_naive, points, repeats),
        "blocked_gemm_lowdin": best_rate(run_blocked, points, repeats),
    }
    return {
        "block": [n, n, n],
        "bands": bands,
        "repeats": repeats,
        "mpoints_per_s": {k: round(v, 1) for k, v in rates.items()},
        "ortho_speedup": round(
            rates["blocked_gemm_lowdin"] / rates["naive_gram_schmidt"], 3
        ),
    }


def measure_plan_cache(n=32, n_grids=16, iterations=10, repeats=3):
    """Cold-compile vs cached re-execution over SCF-style iterations.

    ``uncached`` clears the plan cache before every ``apply`` — the
    pre-refactor cost profile, where each invocation rebuilt its schedule
    from the approach flags.  ``cached`` is the new steady state: the SCF
    loop compiles once and re-executes the plan each iteration.  The
    acceptance bar is that cached apply is not slower than the
    pre-refactor apply (small tolerance for timer noise).
    """
    gd = GridDescriptor((n, n, n))
    decomp = Decomposition(gd, 1)
    coeffs = laplacian_coefficients(2, spacing=gd.spacing)
    engine = DistributedStencil(decomp, coeffs)
    halo = HaloSpec(2)
    blocks = {g: scatter(gd.random(seed=g), decomp, halo)[0]
              for g in range(n_grids)}
    ep = InprocTransport(1).endpoint(0)

    def apply_once():
        engine.apply(ep, blocks, approach=FLAT_OPTIMIZED, batch_size=4)

    def run_uncached():
        for _ in range(iterations):
            clear_plan_cache()
            apply_once()

    def run_cached():
        for _ in range(iterations):
            apply_once()

    apply_once()  # warm buffers, kernels and the plan cache

    def best_seconds(fn):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    uncached = best_seconds(run_uncached)
    cached = best_seconds(run_cached)

    # raw compiler cost: one cold compile vs one cache lookup
    t0 = time.perf_counter()
    compile_schedule(FLAT_OPTIMIZED, decomp, n_grids, 4, use_cache=False)
    cold_compile = time.perf_counter() - t0
    compile_schedule(FLAT_OPTIMIZED, decomp, n_grids, 4)
    t0 = time.perf_counter()
    compile_schedule(FLAT_OPTIMIZED, decomp, n_grids, 4)
    cached_lookup = time.perf_counter() - t0

    return {
        "block": [n, n, n],
        "n_grids": n_grids,
        "iterations": iterations,
        "repeats": repeats,
        "cold_compile_us": round(cold_compile * 1e6, 1),
        "cached_lookup_us": round(cached_lookup * 1e6, 1),
        "uncached_apply_ms": round(uncached * 1e3, 3),
        "cached_apply_ms": round(cached * 1e3, 3),
        "cached_speedup": round(uncached / cached, 3),
        "cached_not_slower": cached <= uncached * 1.10,
    }


def measure_telemetry(n=32, n_grids=8, iterations=10, repeats=5,
                      batch_size=4):
    """Telemetry overhead gate: instrumented vs no-op-registry hot loop.

    Runs the same batched-stencil apply loop twice — once with telemetry
    fully enabled (a live :class:`MetricsRegistry` on the transport and a
    per-step :func:`engine_hook` span recorder) and once against the
    shared ``NULL_REGISTRY`` with no hook (the disabled path every
    instrumented module takes by default).  The acceptance bar for the
    observability PR is ``overhead_pct < 3`` on the full run; ``--smoke``
    only gates a loose sanity bound (timer noise on shared CI runners
    dwarfs 3% at smoke sizes).
    """
    from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
    from repro.obs.spans import SpanTracer, engine_hook

    gd = GridDescriptor((n, n, n))
    decomp = Decomposition(gd, 1)
    coeffs = laplacian_coefficients(2, spacing=gd.spacing)
    engine = DistributedStencil(decomp, coeffs)
    halo = HaloSpec(2)
    blocks = {g: scatter(gd.random(seed=g), decomp, halo)[0]
              for g in range(n_grids)}
    ep_off = InprocTransport(1, metrics=NULL_REGISTRY).endpoint(0)
    ep_on = InprocTransport(1, metrics=MetricsRegistry()).endpoint(0)

    def run_disabled():
        for _ in range(iterations):
            engine.apply(ep_off, blocks, approach=FLAT_OPTIMIZED,
                         batch_size=batch_size)

    def run_enabled():
        hook = engine_hook(SpanTracer(plane="real"), 0)
        for _ in range(iterations):
            engine.apply(ep_on, blocks, approach=FLAT_OPTIMIZED,
                         batch_size=batch_size, on_step=hook)

    run_disabled()  # warm buffers, kernels and the plan cache
    run_enabled()

    # interleave the repeats: measuring all disabled runs then all enabled
    # runs lets host-load drift between the two phases masquerade as
    # telemetry overhead; alternating keeps the best-of pair comparable
    disabled = enabled = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_disabled()
        disabled = min(disabled, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_enabled()
        enabled = min(enabled, time.perf_counter() - t0)
    overhead = enabled / disabled - 1.0
    return {
        "block": [n, n, n],
        "n_grids": n_grids,
        "iterations": iterations,
        "repeats": repeats,
        "disabled_ms": round(disabled * 1e3, 3),
        "enabled_ms": round(enabled * 1e3, 3),
        "overhead_pct": round(overhead * 100, 2),
    }


def measure_planner(n_cores=16384, n_grids=2816, shape=(192, 192, 192),
                    max_groups=8):
    """Planner wall-clock gate: ranking the paper-scale problem is cheap.

    Times one full ``Planner.rank`` over the Fig. 7 problem (2816 grids of
    192^3 on 16384 cores) — every feasible (approach, batch, band-group)
    candidate priced through the compiled schedule plans.  The planner is
    meant to be an interactive pre-run tool, so the acceptance bar is a
    wall budget: the full rank must finish in under 30 s (measured ~2 s;
    the generous bar absorbs shared-runner noise, not regressions of an
    order of magnitude).
    """
    from repro.core.jobspec import ProblemSpec
    from repro.core.planner import Planner

    problem = ProblemSpec(shape=shape, n_grids=n_grids)
    t0 = time.perf_counter()
    result = Planner().rank(problem, n_cores, max_groups=max_groups)
    elapsed = time.perf_counter() - t0
    best = result.best()
    return {
        "n_cores": n_cores,
        "n_grids": n_grids,
        "shape": list(shape),
        "choices": len(result.choices),
        "rejected": len(result.rejected),
        "best": {
            "approach": best.spec.layout.approach,
            "batch_size": best.spec.layout.batch_size,
            "n_band_groups": best.spec.layout.n_band_groups,
            "step_ms": round(best.predicted_time * 1e3, 3),
        },
        "elapsed_s": round(elapsed, 3),
        "within_budget": elapsed < 30.0,
    }


def measure_recovery(n=6, n_ranks=4, nb=2, iterations=5, repeats=4):
    """Recovery-controller overhead gate: fault-free runs stay cheap.

    Times the same band-parallel SCF (checkpointing every iteration)
    twice — driven directly, and wrapped in a
    :class:`~repro.dft.recovery.RecoveryController` with the adaptive
    cadence armed (an ``expected_mtbf`` prior, so the per-iteration
    cadence allreduce and Daly decision are on the measured path).  No
    faults are injected: the gate is that self-healing costs nearly
    nothing until a failure actually happens.  The acceptance bar for
    the recovery PR is ``overhead_pct < 3`` on the full run; ``--smoke``
    only gates a loose sanity bound (thread-scheduling noise on shared
    CI runners dwarfs 3% at smoke sizes).
    """
    from repro.core.jobspec import (
        JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec,
    )
    from repro.core.recovery_policy import DegradationPolicy
    from repro.dft import DistributedSCF, MemoryCheckpointStore
    from repro.dft.recovery import RecoveryController

    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=0.6)
    x, y, z = gd.coordinates()
    c = (n + 1) * 0.6 / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    spec = JobSpec(
        problem=ProblemSpec.from_grid(gd, 4),
        layout=LayoutSpec(n_cores=n_ranks, n_band_groups=nb),
        runtime=RuntimeSpec(mixing=0.6, tolerance=0.0,
                            max_iterations=iterations, band_iterations=4,
                            checkpoint_every=1),
    )

    def make_scf():
        return DistributedSCF.from_spec(
            spec, v, occupations=[2.0] * 4,
            checkpoint_store=MemoryCheckpointStore(),
        )

    def run_baseline():
        return make_scf().run()

    def run_controlled():
        ctrl = RecoveryController(
            make_scf(),
            policy=DegradationPolicy(expected_mtbf=60.0),
        )
        return ctrl.run()

    # correctness cross-check before timing: identical fault-free energy
    base = run_baseline()
    ctrl_res = run_controlled()
    assert abs(base.total_energy - ctrl_res.total_energy) < 1e-10, (
        "controller-driven fault-free run diverged from the direct run"
    )

    # interleave the repeats (see measure_telemetry): host-load drift
    # between phases must not masquerade as controller overhead
    baseline = controlled = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_baseline()
        baseline = min(baseline, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_controlled()
        controlled = min(controlled, time.perf_counter() - t0)
    overhead = controlled / baseline - 1.0
    return {
        "grid": [n, n, n],
        "n_ranks": n_ranks,
        "n_band_groups": nb,
        "iterations": iterations,
        "repeats": repeats,
        "baseline_ms": round(baseline * 1e3, 3),
        "controlled_ms": round(controlled * 1e3, 3),
        "overhead_pct": round(overhead * 100, 2),
    }


def measure_flightrec(n=6, n_ranks=2, iterations=6, repeats=4, capacity=4):
    """Flight-recorder overhead gate: steady-state recording is ~free.

    Times the same SCF twice — bare, and with a
    :class:`~repro.obs.flightrec.FlightRecorder` attached (per-step span
    recording into the bounded ring plus the per-iteration rotation and
    counter-delta snapshot).  No crash occurs, so nothing is ever dumped:
    the gate is that always-on crash forensics cost nearly nothing on the
    healthy path.  The acceptance bar for the observability PR is
    ``overhead_pct < 3`` on the full run; ``--smoke`` only gates a loose
    sanity bound (timer noise on shared CI runners dwarfs 3% at smoke
    sizes).
    """
    from repro.core.jobspec import (
        JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec,
    )
    from repro.dft import DistributedSCF
    from repro.obs import FlightRecorder

    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=0.6)
    x, y, z = gd.coordinates()
    c = (n + 1) * 0.6 / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    spec = JobSpec(
        problem=ProblemSpec.from_grid(gd, 1),
        layout=LayoutSpec(n_cores=n_ranks),
        runtime=RuntimeSpec(mixing=0.6, tolerance=0.0,
                            max_iterations=iterations, band_iterations=4),
    )

    def make():
        return DistributedSCF.from_spec(spec, v, occupations=[2.0])

    def run_disabled():
        return make().run()

    def run_enabled():
        rec = FlightRecorder(capacity=capacity, plane="real")
        return make().run(flight_recorder=rec)

    # correctness cross-check before timing: recording never perturbs
    # the numerics
    base = run_disabled()
    recorded = run_enabled()
    assert abs(base.total_energy - recorded.total_energy) < 1e-12, (
        "flight-recorded run diverged from the bare run"
    )

    # interleave the repeats (see measure_telemetry): host-load drift
    # between phases must not masquerade as recorder overhead
    disabled = enabled = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_disabled()
        disabled = min(disabled, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_enabled()
        enabled = min(enabled, time.perf_counter() - t0)
    overhead = enabled / disabled - 1.0
    return {
        "grid": [n, n, n],
        "n_ranks": n_ranks,
        "iterations": iterations,
        "repeats": repeats,
        "capacity": capacity,
        "disabled_ms": round(disabled * 1e3, 3),
        "enabled_ms": round(enabled * 1e3, 3),
        "overhead_pct": round(overhead * 100, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI: checks the harness runs, "
                             "not the speedup ratio")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_kernels.json in "
                             "the repository root)")
    args = parser.parse_args(argv)

    if args.smoke:
        result = measure(n=16, batch=4, repeats=2)
        result["plan_cache"] = measure_plan_cache(n=16, n_grids=4, repeats=2)
        result["telemetry"] = measure_telemetry(n=16, n_grids=4, repeats=3)
        result["orthogonalization"] = measure_orthogonalization(
            n=16, bands=16, repeats=2
        )
        # the planner gate runs at paper scale even in smoke mode: the
        # whole point of the budget is the full Fig. 7 enumeration, and
        # it is only ~2 s
        result["planner"] = measure_planner()
        result["recovery"] = measure_recovery(iterations=2, repeats=2)
        result["flightrec"] = measure_flightrec(iterations=2, repeats=2)
    else:
        result = measure()
        result["plan_cache"] = measure_plan_cache()
        result["telemetry"] = measure_telemetry()
        result["orthogonalization"] = measure_orthogonalization()
        result["planner"] = measure_planner()
        result["recovery"] = measure_recovery()
        result["flightrec"] = measure_flightrec()
    result["mode"] = "smoke" if args.smoke else "full"
    result["host"] = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    out = (pathlib.Path(args.out) if args.out else
           pathlib.Path(__file__).resolve().parents[1] / "BENCH_kernels.json")
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    for k, v in result["mpoints_per_s"].items():
        print(f"  {k:>15}: {v:8.1f} Mpoints/s")
    print(f"  batched speedup over seed pattern: "
          f"{result['batched_speedup']:.2f}x")
    pc = result["plan_cache"]
    print(f"  plan cache: compile {pc['cold_compile_us']:.0f} us, lookup "
          f"{pc['cached_lookup_us']:.1f} us; {pc['iterations']} SCF-style "
          f"iterations {pc['uncached_apply_ms']:.1f} ms uncached vs "
          f"{pc['cached_apply_ms']:.1f} ms cached "
          f"({pc['cached_speedup']:.2f}x)")
    tel = result["telemetry"]
    print(f"  telemetry: {tel['disabled_ms']:.2f} ms disabled vs "
          f"{tel['enabled_ms']:.2f} ms enabled "
          f"({tel['overhead_pct']:+.2f}% overhead)")
    ortho = result["orthogonalization"]
    orates = ortho["mpoints_per_s"]
    print(f"  orthogonalization ({ortho['bands']} bands): "
          f"{orates['naive_gram_schmidt']:.1f} Mpoints/s naive vs "
          f"{orates['blocked_gemm_lowdin']:.1f} Mpoints/s blocked GEMM "
          f"({ortho['ortho_speedup']:.2f}x)")
    pl = result["planner"]
    print(f"  planner: ranked {pl['choices']} feasible configs "
          f"({pl['rejected']} rejected) for {pl['n_grids']} grids on "
          f"{pl['n_cores']} cores in {pl['elapsed_s']:.2f} s; best "
          f"{pl['best']['approach']} batch={pl['best']['batch_size']} "
          f"nb={pl['best']['n_band_groups']}")
    rec = result["recovery"]
    print(f"  recovery: {rec['baseline_ms']:.1f} ms direct vs "
          f"{rec['controlled_ms']:.1f} ms controller-driven "
          f"({rec['overhead_pct']:+.2f}% overhead, fault-free, "
          f"{rec['n_ranks']}r/{rec['n_band_groups']}g)")
    fr = result["flightrec"]
    print(f"  flightrec: {fr['disabled_ms']:.1f} ms bare vs "
          f"{fr['enabled_ms']:.1f} ms recorded "
          f"({fr['overhead_pct']:+.2f}% overhead, ring capacity "
          f"{fr['capacity']})")

    if not args.smoke and result["batched_speedup"] < 1.5:
        print("FAIL: batched speedup below the 1.5x acceptance bar",
              file=sys.stderr)
        return 1
    if not pc["cached_not_slower"]:
        print("FAIL: cached apply slower than pre-refactor "
              "(recompile-every-call) apply", file=sys.stderr)
        return 1
    telemetry_bar = 50.0 if args.smoke else 3.0
    if tel["overhead_pct"] >= telemetry_bar:
        print(f"FAIL: enabled telemetry costs {tel['overhead_pct']:.2f}% "
              f"on the hot loop (bar: <{telemetry_bar:.0f}%)",
              file=sys.stderr)
        return 1
    # smoke sizes only sanity-check that blocked ortho is not slower;
    # the 1.5x acceptance ratio is gated on the full run
    ortho_bar = 0.9 if args.smoke else 1.5
    if ortho["ortho_speedup"] < ortho_bar:
        print(f"FAIL: blocked-GEMM orthogonalization speedup "
              f"{ortho['ortho_speedup']:.2f}x below the {ortho_bar:.1f}x bar",
              file=sys.stderr)
        return 1
    if not pl["within_budget"]:
        print(f"FAIL: planner rank took {pl['elapsed_s']:.1f} s at paper "
              f"scale (budget: <30 s)", file=sys.stderr)
        return 1
    recovery_bar = 50.0 if args.smoke else 3.0
    if rec["overhead_pct"] >= recovery_bar:
        print(f"FAIL: fault-free controller-driven run costs "
              f"{rec['overhead_pct']:.2f}% over the direct run "
              f"(bar: <{recovery_bar:.0f}%)", file=sys.stderr)
        return 1
    flightrec_bar = 50.0 if args.smoke else 3.0
    if fr["overhead_pct"] >= flightrec_bar:
        print(f"FAIL: steady-state flight recording costs "
              f"{fr['overhead_pct']:.2f}% over the bare run "
              f"(bar: <{flightrec_bar:.0f}%)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
