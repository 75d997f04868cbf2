"""Golden data for the DES replay and the analytic model.

``tests/data/des_golden.json`` freezes the DES replay and
``tests/data/model_golden.json`` the analytic model.

The DES file freezes every simulated number the replay produces on a fixed
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

The model file freezes, as ``repr`` floats:

* ``fig5-nobatch``/``fig5-batch8``/``fig6``/``fig7`` — every
  :class:`~repro.core.perfmodel.FDTiming` field of every figure cell
  (Figs. 6 and 7 at the best batch size the figures pick);
* ``plan`` — ``predicted_time``/``fd_time``/``subspace_time`` of every
  ranked choice of the Fig. 7 problem on 16384 cores;
* ``step_trace`` — the model's span-trace makespan and span count of
  every approach on 16 grids of 64^3 (batch 2) at 8 and 512 cores,
  periodic and non-periodic.

Floats are written as JSON numbers, i.e. ``repr`` floats, which read
back bit for bit.  Run from the repository root::

    PYTHONPATH=src python tools/gen_des_golden.py           # check only
    PYTHONPATH=src python tools/gen_des_golden.py --write   # regenerate

The check covers both files, exits nonzero and names every entry that
drifted.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys

from repro.analysis.experiments import (
    FIG5_CORES,
    FIG5_JOB,
    FIG6_CORES,
    FIG67_GRID,
    FIG7_CORES,
    FIG7_JOB,
)
from repro.core import (
    ALL_APPROACHES,
    FDJob,
    PerformanceModel,
    Planner,
    ProblemSpec,
    approach_by_name,
    simulate_fd,
)
from repro.core.approaches import FLAT_ORIGINAL, FLAT_SUBGROUPS
from repro.core.simrun import simulate_band_plan
from repro.grid import GridDescriptor
from repro.netmodel import measured_bandwidth_curve
from repro.obs.spans import SpanTracer
from repro.transport.faults import FaultPlan

DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
GOLDEN = DATA / "des_golden.json"
MODEL_GOLDEN = DATA / "model_golden.json"

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


# -- the analytic model --------------------------------------------------------
#: approaches of the model's step-trace entries
TRACE_APPROACHES = ALL_APPROACHES + (FLAT_SUBGROUPS,)
#: (label, n_cores, pbc) of the step-trace entries: 16 x 64^3 grids
TRACE_CASES = tuple(
    (f"{cores}c-{'periodic' if periodic else 'open'}", cores, (periodic,) * 3)
    for cores in (8, 512)
    for periodic in (True, False)
)
TRACE_GRIDS = 16
TRACE_BATCH = 2


def timing_record(timing) -> dict:
    """Every field of one :class:`~repro.core.perfmodel.FDTiming`."""
    return dataclasses.asdict(timing)


def fig5_record(batching: bool) -> dict:
    """Fig. 5 cells (one panel): ``cores -> approach -> timing``."""
    pm = PerformanceModel()
    out = {}
    for p in FIG5_CORES:
        cells = {}
        for a in ALL_APPROACHES:
            if batching and not a.supports_batching and a is not FLAT_ORIGINAL:
                continue
            b = 8 if (batching and a.supports_batching) else 1
            cells[a.name] = timing_record(pm.evaluate(FIG5_JOB, a, p, batch_size=b))
        out[str(p)] = cells
    return out


def _best(pm, job, approach, n_cores):
    if approach.supports_batching:
        return pm.best_batch_size(job, approach, n_cores)
    return pm.evaluate(job, approach, n_cores)


def fig6_record() -> dict:
    """Fig. 6 cells: grids = cores, best batch size."""
    pm = PerformanceModel()
    return {
        str(p): {
            a.name: timing_record(_best(pm, FDJob(FIG67_GRID, p), a, p))
            for a in ALL_APPROACHES
        }
        for p in FIG6_CORES
    }


def fig7_record() -> dict:
    """Fig. 7 cells: the 2816-grid job, best batch size."""
    pm = PerformanceModel()
    return {
        str(p): {a.name: timing_record(_best(pm, FIG7_JOB, a, p)) for a in ALL_APPROACHES}
        for p in FIG7_CORES
    }


def plan_record() -> dict:
    """Every ranked choice of ``repro plan --cores 16384`` on the Fig. 7
    problem, keyed by its layout, in rank order."""
    result = Planner().rank(ProblemSpec((192,) * 3, 2816), 16384, max_groups=8)
    out = {}
    for ch in result.choices:
        lay = ch.spec.layout
        key = (
            f"{lay.approach}-nb{lay.n_band_groups}-b{lay.batch_size}"
            f"{'-ramp' if lay.ramp_up else ''}"
        )
        assert key not in out, key
        out[key] = {
            "predicted_time": ch.predicted_time,
            "fd_time": ch.fd_time,
            "subspace_time": ch.subspace_time,
        }
    return out


def step_trace_record() -> dict:
    """Makespan and span count of the model's step trace."""
    pm = PerformanceModel()
    out = {}
    for label, cores, pbc in TRACE_CASES:
        job = FDJob(GridDescriptor((64,) * 3, pbc=pbc), TRACE_GRIDS)
        cells = {}
        for a in TRACE_APPROACHES:
            b = TRACE_BATCH if a.supports_batching else 1
            tracer = pm.step_trace(job, a, cores, b)
            cells[a.name] = {"makespan": tracer.makespan(), "spans": len(tracer)}
        out[label] = cells
    return out


#: family -> generator of the model golden file
MODEL_FAMILIES = {
    "fig5-nobatch": lambda: fig5_record(False),
    "fig5-batch8": lambda: fig5_record(True),
    "fig6": fig6_record,
    "fig7": fig7_record,
    "plan": plan_record,
    "step_trace": step_trace_record,
}


def generate_model() -> dict:
    return {family: make() for family, make in MODEL_FAMILIES.items()}


def model_cells(node: dict, path: str = "model") -> dict:
    """Flatten the model file to ``path -> record`` (a record is an
    innermost dict, e.g. one timing's fields)."""
    if not all(isinstance(v, dict) for v in node.values()):
        return {path: node}
    out = {}
    for key, child in node.items():
        out.update(model_cells(child, f"{path}/{key}"))
    return out


def model_mismatches(want: dict, got: dict) -> list[str]:
    """Path of every model record that differs, is missing or is new."""
    want_cells, got_cells = model_cells(want), model_cells(got)
    keys = list(want_cells) + [k for k in got_cells if k not in want_cells]
    return [k for k in keys if want_cells.get(k) != got_cells.get(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the golden file instead of checking against it",
    )
    args = parser.parse_args(argv)
    if args.write:
        DATA.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
        MODEL_GOLDEN.write_text(json.dumps(generate_model(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
        print(f"wrote {MODEL_GOLDEN}")
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
    n = len(want["fd"]) + len(want["band"]) + len(want["fig2"])
    want_model = json.loads(MODEL_GOLDEN.read_text())
    bad += model_mismatches(want_model, json.loads(json.dumps(generate_model())))
    n += len(model_cells(want_model))
    for entry in bad:
        print(f"MISMATCH {entry}", file=sys.stderr)
    print(f"{n} golden entries checked, {len(bad)} mismatched")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
