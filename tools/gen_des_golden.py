"""Golden data for the DES replay: ``tests/data/des_golden.json``.

The file freezes every simulated number the replay produces on a fixed
set of configurations, so the engine is checked against data instead of
against a second engine kept bit-exact by hand.  Three families:

* ``fd`` — FD invocations through :func:`repro.core.simrun.simulate_fd`:
  all four approaches plus flat sub-groups, blocking and pipelined
  plans, ramp-up, spread placement, a single core, and seeded fault
  plans (a storm with every fault kind armed, and rank kills).  Each
  entry stores the exact scalars of the result and sha256 digests of the
  activity rows ``(start, end, resource, step_kind)`` and of the step
  rows, both in insertion order.
* ``band`` — the ring orthogonalization pass
  (:func:`repro.core.simrun.simulate_band_plan`) of the planner's
  48^3 / 48 bands / 96 cores ring plan at nb in {1, 2, 3, 6}, with its
  step rows.
* ``fig2`` — the Fig. 2 ping-pong time of every default message size
  (:func:`repro.netmodel.measured_bandwidth_curve`).

Floats are written as JSON numbers, i.e. ``repr`` floats, which read
back bit for bit.  Run from the repository root::

    PYTHONPATH=src python tools/gen_des_golden.py           # check only
    PYTHONPATH=src python tools/gen_des_golden.py --write   # regenerate

The check exits nonzero and names every entry that drifted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

from repro.core import FDJob, Planner, ProblemSpec, approach_by_name, simulate_fd
from repro.core.simrun import simulate_band_plan
from repro.grid import GridDescriptor
from repro.netmodel import measured_bandwidth_curve
from repro.obs.spans import SpanTracer
from repro.transport.faults import FaultPlan

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "des_golden.json"

#: every fault kind armed at once (delay, drop, duplicate, corrupt)
STORM = dict(
    seed=7, p_delay=0.15, p_drop=0.1, p_duplicate=0.1, p_corrupt=0.1,
    delay=3e-4, retransmit_timeout=1e-4,
)

#: name -> replay configuration; the names are the equivalence-test ids
FD_CASES: dict[str, dict] = {
    "flat-original-8c-b1": dict(approach="flat-original", n_cores=8),
    "flat-original-32c-b1": dict(approach="flat-original", n_cores=32),
    "flat-optimized-8c-b1": dict(approach="flat-optimized", n_cores=8),
    "flat-optimized-32c-b4": dict(approach="flat-optimized", n_cores=32, batch_size=4),
    "flat-optimized-32c-b4-ramp": dict(
        approach="flat-optimized", n_cores=32, batch_size=4, ramp_up=True
    ),
    "hybrid-multiple-16c-b2": dict(approach="hybrid-multiple", n_cores=16, batch_size=2),
    "hybrid-multiple-32c-b4": dict(approach="hybrid-multiple", n_cores=32, batch_size=4),
    "hybrid-master-only-16c-b2": dict(
        approach="hybrid-master-only", n_cores=16, batch_size=2
    ),
    "hybrid-master-only-32c-b1": dict(approach="hybrid-master-only", n_cores=32),
    "flat-subgroups-32c-b2": dict(approach="flat-subgroups", n_cores=32, batch_size=2),
    "single-core": dict(
        approach="flat-optimized", n_cores=1, shape=(16, 16, 16), n_grids=4
    ),
    "spread-placement": dict(
        approach="flat-optimized", n_cores=32, batch_size=2, placement="spread"
    ),
    "untraced": dict(
        approach="hybrid-multiple", n_cores=32, batch_size=2, traced=False
    ),
    "faults-flat-opt": dict(
        approach="flat-optimized", n_cores=32, batch_size=2, faults=STORM
    ),
    "faults-hybrid-mult": dict(
        approach="hybrid-multiple", n_cores=32, batch_size=2, faults=STORM
    ),
    "faults-subgroups": dict(approach="flat-subgroups", n_cores=32, faults=STORM),
    "rank-kill-restart": dict(
        approach="flat-optimized", n_cores=32, batch_size=2,
        faults=dict(seed=3, kill_at={2: 5, 5: 9}, restart_time=2e-3),
    ),
    "kill-under-hybrid": dict(
        approach="hybrid-master-only", n_cores=16, batch_size=2,
        faults=dict(seed=4, kill_at={1: 3}, restart_time=1e-3),
    ),
}

#: band groups of the golden ring passes
BAND_GROUPS = (1, 2, 3, 6)


def digest(rows) -> str:
    """sha256 over the rows' ``repr``\\ s, in order (one row per line)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def span_rows(tracer) -> list:
    """Activity rows ``(start, end, resource, step_kind)``, insertion order."""
    return [(s.start, s.end, s.resource, s.step_kind) for s in tracer.spans()]


def step_rows(tracer) -> list:
    """Step rows with every field the step schema carries, insertion order."""
    return [
        (
            s.resource, s.step_kind, s.start, s.end, s.plane, s.worker,
            s.grid_ids, s.seq, s.dim, s.direction,
        )
        for s in tracer.spans()
    ]


def run_fd(name: str):
    """Replay one named FD configuration."""
    case = dict(FD_CASES[name])
    shape = case.pop("shape", (24, 24, 24))
    n_grids = case.pop("n_grids", 8)
    traced = case.pop("traced", True)
    faults = case.pop("faults", None)
    return simulate_fd(
        FDJob(GridDescriptor(shape), n_grids),
        approach_by_name(case.pop("approach")),
        case.pop("n_cores"),
        fault_plan=FaultPlan(**faults) if faults else None,
        trace=traced,
        step_tracer=SpanTracer(plane="sim") if traced else None,
        **case,
    )


def fd_record(result) -> dict:
    """The golden entry of one FD replay."""
    rec = {
        "total": result.total,
        "utilization": result.utilization,
        "comm_bytes_per_node": result.comm_bytes_per_node,
        "messages": result.messages,
        "fault_events": result.fault_events,
        "events": result.events,
        "ir_steps": result.ir_steps,
    }
    if result.trace is not None:
        rec["span_rows"] = len(result.trace)
        rec["span_sha256"] = digest(span_rows(result.trace))
    if result.step_trace is not None:
        rec["step_rows"] = len(result.step_trace)
        rec["step_sha256"] = digest(step_rows(result.step_trace))
    return rec


def band_plan(nb: int):
    """The planner's ring plan: 48^3, 48 bands, 96 cores."""
    return Planner().band_plan(ProblemSpec((48,) * 3, 48), 96, nb)


def band_record(nb: int) -> dict:
    """The golden entry of one ring pass."""
    res = simulate_band_plan(band_plan(nb), step_tracer=SpanTracer(plane="sim"))
    return {
        "n_groups": res.n_groups,
        "total": res.total,
        "messages": res.messages,
        "step_rows": len(res.step_trace),
        "step_sha256": digest(step_rows(res.step_trace)),
    }


def fig2_record() -> list:
    """``[message_bytes, time]`` of every default Fig. 2 size."""
    return [[p.message_bytes, p.time] for p in measured_bandwidth_curve()]


def generate() -> dict:
    return {
        "fd": {name: fd_record(run_fd(name)) for name in FD_CASES},
        "band": {str(nb): band_record(nb) for nb in BAND_GROUPS},
        "fig2": fig2_record(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the golden file instead of checking against it",
    )
    args = parser.parse_args(argv)
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(generate()))
    bad = [
        f"{family}/{key}"
        for family in ("fd", "band")
        for key in want[family]
        if got[family].get(key) != want[family][key]
    ]
    if got["fig2"] != want["fig2"]:
        bad.append("fig2")
    for entry in bad:
        print(f"MISMATCH {entry}", file=sys.stderr)
    n = len(want["fd"]) + len(want["band"]) + len(want["fig2"])
    print(f"{n} golden entries checked, {len(bad)} mismatched")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
