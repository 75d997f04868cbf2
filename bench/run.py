#!/usr/bin/env python3
"""One command for the repo's benchmark.

    python3 bench/run.py [--seed N] [--workload NAME ...] [--quick] [--out FILE]

runs the selected workloads (default: all seven) one after another —
closed loop, one driver, each workload in a fresh child process, first
untraced (end-to-end metrics) and then traced (per-layer metrics) — checks
every output and prints every metric by name with its unit.

    python3 bench/run.py --workload NAME --trace 0|1 --seed N --seconds S

is one such child run: it prints its metrics and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones.

``--seconds`` is the budget for timed passes: passes repeat until it is
spent, but never fewer than 5 (a pass of the heaviest workloads takes
about 3 s) and never more than the workload's pass count in
``workloads.SIZES``.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# Two cores, two rank threads: BLAS worker threads on top would
# oversubscribe them, and the 1-thread baseline would not be one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: set-ups per run: this process's own plus fresh ``--setup-only`` children
SETUP_SAMPLES = 3
MIN_PASSES = 5
TRACED_PAIRS = (2, 5)  # (least, most) untraced+traced pass pairs
SETTLE_TOLERANCE = 0.2


def summarize(samples: list) -> dict:
    """Median with quartiles, extremes and the sample count beside it."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples),
        "q1": q1, "q3": q3, "min": min(samples), "max": max(samples),
        "n": len(samples), "samples": list(samples),
    }


def host_facts() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "caches": caches}


def import_workloads():
    """Import the workloads (and with them ``repro``); part of set-up."""
    sys.path.append(str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    return workloads


def set_up(args):
    """import repro + input generation + object construction + plan compilation."""
    workloads = import_workloads()
    wl = workloads.make(args.workload[0], args.seed, args.quick, OUT_DIR)
    wl.setup()
    return workloads, wl, time.perf_counter() - _PROCESS_START


def child_command(name: str, args, *extra: str) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.quick:
        cmd.append("--quick")
    return cmd


def setup_samples(args, own: float) -> list:
    samples = [own]
    for _ in range(1 if args.quick else SETUP_SAMPLES - 1):
        proc = subprocess.run(
            child_command(args.workload[0], args, "--setup-only"),
            stdout=subprocess.PIPE, text=True, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Tally:
    """Passes attempted, and those whose check failed or that raised."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *a, check=None):
        """One counted pass; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            result = fn(*a)
            ok = (check or self.wl.check)(result.output)
        except Exception:  # a raising pass is a failed pass
            traceback.print_exc()
            result, ok = None, False
        if not ok:
            self.failed += 1
            if result is not None:
                print(f"  check failed; observed {describe(result.output)}",
                      file=sys.stderr)
            return None
        return result


def describe(output) -> str:
    text = repr(output)
    return text if len(text) <= 400 else text[:400] + "…"


def unsettled(walls: list) -> int:
    """How many leading passes still belong to the warm-up (at most 2).

    Two rank threads have two regimes on a small VM: hand-offs are cheap
    while the kernel keeps both threads on one core and several times
    dearer once it has spread them, which it does within the first
    seconds of thread activity and then keeps (bench/README.md, sizing
    record).  A pass that differs from the next one by more than
    ``SETTLE_TOLERANCE`` was measured across that switch and is discarded
    like the first warm-up pass; single-threaded workloads never trip it.
    """
    k = 0
    while (k < 2 and k + 1 < len(walls)
           and abs(walls[k] - walls[k + 1]) > SETTLE_TOLERANCE * walls[k + 1]):
        k += 1
    return k


def timed_passes(tally, fn, seconds, least, most, check=None) -> list:
    """Wall times of checked passes: ``least`` <= n <= ``most``, within budget."""
    walls = []
    deadline = time.perf_counter() + seconds
    for _ in range(2 * most):  # failed passes are not retried for ever
        n = len(walls) - unsettled(walls)
        if n == most or (n >= least and time.perf_counter() >= deadline):
            break
        result = tally.run(fn, check=check)
        if result is not None:
            walls.append(result.wall)
    return walls[unsettled(walls):]


def run_untraced(wl, args) -> tuple:
    p = wl.p
    least = p["passes"] if args.quick else MIN_PASSES
    tally = Tally(wl)
    serial = []
    start = time.perf_counter()
    if wl.real_plane:
        wl.run_serial()  # warm-up, discarded
        serial = timed_passes(
            tally, wl.run_serial, args.seconds / 4,
            min(least, p["serial_passes"]), p["serial_passes"],
            check=wl.check_serial)
    wl.run_pass()  # warm-up, discarded
    budget = args.seconds - (time.perf_counter() - start if serial else 0.0)
    walls = timed_passes(tally, wl.run_pass, budget, least, p["passes"])
    if not walls or (wl.real_plane and not serial):
        raise SystemExit("bench: no pass produced a checked result")
    # a workload that already runs on one thread is its own baseline
    return tally, {"wall_s": walls, "serial_wall_s": serial or walls}


def run_traced(workloads, wl, args) -> tuple:
    from tracing import SpanRecorder, write_trace

    rec = SpanRecorder()
    tally = Tally(wl)
    start = time.perf_counter()
    serial = []
    if wl.real_plane:
        wl.run_serial()
        serial = timed_passes(
            tally, wl.run_serial, 0.0, 2, 2, check=wl.check_serial)
    warm = [wl.run_pass().wall]
    plain, traced, per_pass, kept = [], [], [], []
    pair_time = 0.0
    least, most = TRACED_PAIRS
    while len(traced) < least or (
        len(traced) < most
        and time.perf_counter() - start + pair_time < args.seconds
    ):
        if tally.attempted >= 8 * most:
            break
        t0 = time.perf_counter()
        a = tally.run(wl.run_pass)
        b = tally.run(wl.run_pass, rec)
        threads = rec.end_pass(len(traced))
        pair_time = time.perf_counter() - t0
        if a is None or b is None:
            continue
        if not traced and len(warm) < 3 and unsettled([warm[-1], a.wall]):
            warm.append(a.wall)  # still warming up: see unsettled()
            continue
        plain.append(a.wall)
        traced.append(b.wall)
        per_pass.append(wl.pass_layers(b, threads))
        kept.extend(threads.values())
    if not traced:
        raise SystemExit("bench: no traced pass produced a checked result")

    layers, exact, repeats = merge_passes(per_pass, workloads.EXACT_COUNTS)
    if not repeats:
        tally.failed += 1
        print(f"  exact counts differ between passes: {exact}", file=sys.stderr)
    layers.update(wl.probes(layers, plain))
    plain_med = statistics.median(plain)
    layers.update({
        "run.passes": len(traced),
        "run.warmup_s": warm[0],
        "run.wall_min_s": min(plain),
        "run.wall_max_s": max(plain),
        "run.wall_iqr_frac": iqr_frac(plain),
        "run.par_eff": (
            statistics.median(serial) / (2 * plain_med) if serial else None),
        "run.trace_overhead_frac": statistics.median(
            (t - u) / u for t, u in zip(traced, plain)),
    })
    if wl.name.startswith("des_"):
        layers["des.cold_first_s"] = warm[0]
    n_spans = write_trace(OUT_DIR / f"trace_{wl.name}.json", wl.name, kept)
    sums = [layer_sum(d, workloads.SELF_TIME_METRICS) for d in per_pass]
    detail = {
        "exact_counts": exact,
        "traced_wall_s": traced,
        "layer_sum_s": sums,
        # only the real-plane workloads' spans partition their pass
        "layer_sum_err_frac": max(
            abs(s - w) / w for s, w in zip(sums, traced)
        ) if wl.real_plane else None,
        "trace_file_spans": n_spans,
    }
    return tally, layers, detail


def iqr_frac(samples: list) -> float:
    """Quartile distance over the median; the range when n < 4."""
    if len(samples) < 4:
        return (max(samples) - min(samples)) / statistics.median(samples)
    s = summarize(samples)
    return (s["q3"] - s["q1"]) / s["value"]


def layer_sum(layers: dict, self_time_metrics) -> float:
    return sum(layers.get(m) or 0.0 for m in self_time_metrics)


def merge_passes(per_pass: list, exact_names) -> tuple:
    """Median of each layer value over the traced passes.

    Also returns the per-pass values of the exact counts and whether each
    of them repeated exactly.
    """
    layers, exact = {}, {}
    for key in {k for d in per_pass for k in d}:
        values = [d[key] for d in per_pass if d.get(key) is not None]
        layers[key] = statistics.median(values) if values else None
        if key in exact_names:
            exact[key] = values
    repeats = all(len(set(v)) <= 1 for v in exact.values())
    return layers, exact, repeats


def report(name, tally, metrics: dict, wanted: list, extra: dict, args) -> None:
    """Print every metric by name with its unit, then the result line."""
    unknown = sorted(set(metrics) - {m["name"] for m in wanted})
    if unknown:
        raise SystemExit(f"bench: metrics missing from BENCHMARK.json: {unknown}")
    line = {}
    for m in wanted:
        got = metrics.get(m["name"])
        stats = got if isinstance(got, dict) else {"value": got}
        value = stats["value"]
        # a layer this workload does not exercise did no work: zero
        line[m["name"]] = {
            "value": 0.0 if value is None else value, "unit": m["unit"]}
        if value is None:
            continue
        spread = ""
        if "n" in stats:
            spread = (f"  (q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, min "
                      f"{stats['min']:.6g}, max {stats['max']:.6g}, n={stats['n']})")
        print(f"{name:<11} {m['name']:<34} {value:>12.6g} {m['unit']}{spread}")
    skipped = len(wanted) - sum(1 for m in wanted if metrics.get(m["name"]) is not None)
    if skipped:
        print(f"{name:<11} ({skipped} metrics of layers this workload does "
              "not exercise are not listed)")
    failed_frac = tally.failed / tally.attempted
    print(f"{name:<11} {'failed_frac':<34} {failed_frac:>12.6g} fraction"
          f"  ({tally.failed} of {tally.attempted} passes)")
    if args.out:
        doc = {
            "workload": name, "trace": args.trace, "seed": args.seed,
            "quick": args.quick, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, **extra,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": line,
    }))


def single_run(args) -> int:
    name = args.workload[0]
    workloads, wl, own_setup = set_up(args)
    try:
        if args.trace == 0:
            setups = setup_samples(args, own_setup)
            tally, samples = run_untraced(wl, args)
            metrics = {k: summarize(v) for k, v in samples.items()}
            metrics["setup_s"] = summarize(setups)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = summarize([rss])
            report(name, tally, metrics, SPEC["end_to_end"], {}, args)
        else:
            tally, layers, detail = run_traced(workloads, wl, args)
            report(name, tally, layers, SPEC["per_layer"], detail, args)
    finally:
        wl.close()
    return 0


def full_run(args) -> int:
    """Every selected workload, untraced then traced, each in a fresh child."""
    names = args.workload or WORKLOAD_NAMES
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.append(str(ROOT / "src"))
    import adapters  # fails here, before any child, if repro is missing

    host = {**host_facts(), **adapters.versions()}
    print(f"host: nproc={host['nproc']} caches={host['caches']} "
          f"python={host['python']} numpy={host['numpy']}")
    doc = {"host": host, "seed": args.seed, "quick": args.quick,
           "bounds": {m["name"]: m["bound"] for m in SPEC["end_to_end"]},
           "workloads": {}}
    status = 0
    started = time.perf_counter()
    for name in names:
        entry = doc["workloads"][name] = {}
        for trace in (0, 1):
            detail = OUT_DIR / f"result_{name}_{trace}.json"
            proc = subprocess.run(
                child_command(name, args, "--trace", str(trace),
                              "--out", str(detail)),
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name}: run failed (exit {proc.returncode})")
                status = 1
                continue
            result = json.loads(detail.read_text())
            detail.unlink()
            if result["failed"]:
                status = 1
            if trace == 0:
                entry["end_to_end"] = result["metrics"]
                entry["attempted"] = result["attempted"]
                entry["failed"] = result["failed"]
                entry["failed_frac"] = result["failed"] / result["attempted"]
            else:
                entry["per_layer"] = result.pop("metrics")
                entry["traced"] = {
                    k: result[k] for k in (
                        "exact_counts", "traced_wall_s", "layer_sum_s",
                        "layer_sum_err_frac", "attempted", "failed")
                }
    print(f"total {time.perf_counter() - started:.1f} s; "
          f"{'all checks passed' if status == 0 else 'FAILURES (see above)'}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", action="extend",
                    choices=WORKLOAD_NAMES, metavar="NAME")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", metavar="FILE")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        _, wl, seconds = set_up(args)
        wl.close()
        print(repr(seconds))
        return 0
    if args.trace is None:
        return full_run(args)
    if not args.workload or len(args.workload) != 1:
        ap.error("--trace runs exactly one --workload")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
