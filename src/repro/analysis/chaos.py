"""The chaos suite: seeded fault campaigns against the functional plane.

``repro chaos --seed N`` runs the *real* distributed engine — the same
compiled schedules, transport and SCF the correctness tests use — under
a deterministic :class:`~repro.transport.faults.FaultPlan`, and prints a
survival matrix: which fault class was injected, how many faults fired,
how many attempts the run needed, and whether the recovered result is
bit-identical to the fault-free oracle.

Every scenario is a pure function of the seed, so a CI failure replays
locally with the same command line.  Expected outcomes:

* transient faults (delay / drop / duplicate / corruption) — recovered,
  bit-identical;
* a killed rank under the stencil scenario's retry loop — *crashed*,
  but with a typed, step-attributed crash report (never a hang);
* a paper-scale DES storm (512 ranks, compiled replay engine) run twice
  from pristine plan replicas — bit-identical makespan and event counts;
* a killed rank mid-SCF with checkpointing — the
  :class:`~repro.dft.recovery.RecoveryController` picks a degraded
  layout on the survivors (no caller-supplied shrink target), regroups
  the checkpoint onto it, and the run reaches the fault-free oracle
  energy: ``scf-kill-resume`` (2 ranks -> 1), and with ``--controller``
  the band-parallel ``ctrl-kill-nb{2,4}`` rows plus a static vs
  adaptive checkpoint-cadence comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import DegradationError, DegradationPolicy, DistributedStencil
from repro.grid import Decomposition, GridDescriptor, HaloSpec, gather, scatter
from repro.stencil import apply_stencil_global, laplacian_coefficients
from repro.transport import (
    CrashReport,
    FaultPlan,
    FaultyTransport,
    InprocTransport,
    TransportError,
    crash_report_from,
    run_ranks,
)


@dataclass(frozen=True)
class ChaosOutcome:
    """One scenario's row in the survival matrix."""

    scenario: str
    injected: int  # fault events that actually fired
    attempts: int
    outcome: str  # "recovered" | "crashed" | "clean" | "unfired"
    identical: bool  # bit-identical to the fault-free oracle
    errors: tuple[str, ...]  # error types seen across attempts (an
    # unfired row appends what was planned and how far the rank got)


#: seconds a chaos-suite receive waits before it times out
_TIMEOUT = 1.0


class _StencilScenario:
    """A small distributed stencil application with a known oracle."""

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        gd = GridDescriptor((8, 8, 8))
        self.decomp = Decomposition(gd, n_ranks)
        coeffs = laplacian_coefficients(2, gd.spacing)
        self.engine = DistributedStencil(self.decomp, coeffs)
        fields = {gid: gd.random(seed=gid) for gid in range(4)}
        self.blocks = {
            gid: scatter(fields[gid], self.decomp, HaloSpec(2)) for gid in fields
        }
        self.oracle = {
            gid: apply_stencil_global(fields[gid], coeffs) for gid in fields
        }

    def rank_fn(self, ep):
        mine = {gid: self.blocks[gid][ep.rank] for gid in self.blocks}
        return self.engine.apply(ep, mine)

    def check(self, results) -> bool:
        return all(
            np.array_equal(
                gather([results[r][gid] for r in range(self.n_ranks)]),
                self.oracle[gid],
            )
            for gid in self.oracle
        )

    def run(
        self, name: str, plan: FaultPlan, max_retries: int
    ) -> ChaosOutcome:
        """Run under ``plan``, retrying a transient failure up to
        ``max_retries`` times on a fresh transport that shares the plan."""
        reports: list[CrashReport] = []
        results = None
        while results is None and len(reports) <= max_retries:
            tr = FaultyTransport(
                InprocTransport(self.n_ranks, default_timeout=_TIMEOUT), plan
            )
            try:
                results = run_ranks(self.n_ranks, self.rank_fn, transport=tr)
            except TransportError as exc:
                reports.append(crash_report_from(exc, len(reports) + 1, tr))
                if not exc.transient:
                    break
        errors = tuple(sorted({r.error_type for r in reports}))
        if results is None:
            return ChaosOutcome(
                scenario=name,
                injected=len(plan.events),
                attempts=len(reports),
                outcome="crashed",
                identical=False,
                errors=errors,
            )
        return ChaosOutcome(
            scenario=name,
            injected=len(plan.events),
            attempts=len(reports) + 1,
            outcome="recovered" if reports else "clean",
            identical=self.check(results),
            errors=errors,
        )


def _des_replay_scale(seed: int) -> ChaosOutcome:
    """Paper-scale DES storm: 512 ranks, replayed twice.

    The table-driven replay makes fault campaigns at paper scale
    tractable inside the suite.  A seeded storm over 512 simulated ranks
    runs twice from pristine :meth:`FaultPlan.replica` copies and must
    agree bit-exactly on makespan, fault count, message count and
    fired-event count — any firing-order drift in the engine shows up here
    before it can corrupt a larger campaign.
    """
    from repro.core import FDJob, simulate_fd
    from repro.core.approaches import FLAT_OPTIMIZED

    job = FDJob(GridDescriptor((48, 48, 48)), 8)
    plan = FaultPlan(
        seed=seed, p_delay=0.1, p_drop=0.05, p_duplicate=0.05,
        p_corrupt=0.05, delay=3e-4, retransmit_timeout=1e-4,
    )
    a, b = (
        simulate_fd(job, FLAT_OPTIMIZED, 512, batch_size=4,
                    fault_plan=plan.replica())
        for _ in range(2)
    )
    identical = (
        (a.total, a.fault_events, a.messages, a.events)
        == (b.total, b.fault_events, b.messages, b.events)
    )
    return ChaosOutcome(
        scenario="des-storm-512r",
        injected=a.fault_events,
        attempts=2,
        outcome="clean",
        identical=identical,
        errors=(),
    )


def kill_op_mid_iteration(make_scf, rank: int) -> int:
    """The transport op of ``rank`` that lands mid-iteration 3.

    Counted, not guessed: ``make_scf(store)`` runs once fault-free with
    static cadence under a plan that only counts, the store notes where
    the rank's kill clock stands at each of its checkpoint deposits, and
    the op midway between deposits 2 and 3 is returned — a kill there
    finds checkpoints 1 and 2 committed, however many ops the solvers of
    the day need.
    """
    from repro.dft import MemoryCheckpointStore

    plan = FaultPlan(seed=0)
    clock_at: dict[int, int] = {}

    class MarkingStore(MemoryCheckpointStore):
        def deposit(self, **payload):
            if payload["rank"] == rank:
                clock_at[payload["iteration"]] = plan.ops(rank)
            return super().deposit(**payload)

    scf = make_scf(MarkingStore())
    scf.run(transport=FaultyTransport(InprocTransport(scf.layout.n_ranks), plan))
    return (clock_at[2] + clock_at[3]) // 2


def _scf_kill(
    name: str, seed: int, *, n_bands: int, n_cores: int,
    nb: int, kill_rank: int, policy,
    flightrec_dir: str | None = None,
) -> ChaosOutcome:
    """Kill ``kill_rank`` mid-iteration 3 of a 4-iteration SCF; the
    RecoveryController replans and resumes.

    No shrink target is supplied: the controller consumes the crash
    report, asks the planner for the best feasible layout on the
    survivors, and regroups the latest committed checkpoint onto it;
    the run must then reach the fault-free oracle energy.  A planned
    kill that never fires is an ``unfired`` row (a failure): the run
    "survived" nothing.
    ``flightrec_dir`` attaches a flight recorder and writes its crash
    dump(s) there as JSON — the CI artifact on fatal injections.
    """
    from repro.core.jobspec import (
        JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec,
    )
    from repro.dft import (
        DistributedSCF,
        MemoryCheckpointStore,
        RecoveryController,
    )

    n = 6
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=0.6)
    x, y, z = gd.coordinates()
    c = (n + 1) * 0.6 / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    spec = JobSpec(
        problem=ProblemSpec.from_grid(gd, n_bands),
        layout=LayoutSpec(n_cores=n_cores, n_band_groups=nb),
        runtime=RuntimeSpec(
            mixing=0.6, tolerance=0.0, max_iterations=4,
            band_iterations=4, checkpoint_every=1, seed=seed,
        ),
    )

    def make(store):
        return DistributedSCF.from_spec(
            spec, v, occupations=[2.0] * n_bands, checkpoint_store=store
        )

    oracle = make(None).run()  # fault-free twin, no shared store
    # the kill lands after checkpoints 1 and 2 committed (static
    # cadence; the adaptive cadence may checkpoint less often, in which
    # case the degraded layout replays from scratch — still exact)
    kill_op = kill_op_mid_iteration(make, kill_rank)
    plan = FaultPlan(seed=seed, kill_at={kill_rank: kill_op})

    def factory(attempt: int, n_ranks: int):
        inner = InprocTransport(n_ranks, default_timeout=_TIMEOUT)
        return FaultyTransport(inner, plan) if attempt == 0 else inner

    recorder = None
    if flightrec_dir is not None:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(capacity=8, plane="real")
    ctrl = RecoveryController(
        make(MemoryCheckpointStore()), policy=policy,
        transport_factory=factory, flight_recorder=recorder,
    )
    try:
        res = ctrl.run()
    except (TransportError, DegradationError) as exc:
        _write_flight_dumps(ctrl, name, flightrec_dir)
        return ChaosOutcome(
            scenario=name,
            injected=len(plan.events),
            attempts=len(ctrl.reports) or 1,
            outcome="crashed",
            identical=False,
            errors=(type(exc).__name__,),
        )
    _write_flight_dumps(ctrl, name, flightrec_dir)
    identical = bool(
        np.isfinite(res.total_energy)
        and abs(res.total_energy - oracle.total_energy) < 1e-8
    )
    errors = tuple(sorted({r.error_type for r in ctrl.reports}))
    if not any(e.kind == "kill" for e in plan.events):
        errors += (
            f"kill of rank {kill_rank} planned at op {kill_op} never "
            f"fired: the rank finished after {plan.ops(kill_rank)} ops",
        )
    return ChaosOutcome(
        scenario=name,
        injected=len(plan.events),
        attempts=res.restarts + 1,
        outcome="recovered" if res.restarts else "unfired",
        identical=identical,
        errors=errors,
    )


def _write_flight_dumps(ctrl, scenario: str, flightrec_dir: str | None) -> None:
    """Persist the controller's flight-recorder dumps as JSON artifacts."""
    if flightrec_dir is None or not getattr(ctrl, "flight_dumps", None):
        return
    import json
    import os

    os.makedirs(flightrec_dir, exist_ok=True)
    for i, dump in enumerate(ctrl.flight_dumps):
        path = os.path.join(flightrec_dir, f"flightrec-{scenario}-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=1)


def run_chaos_suite(
    seed: int = 0,
    n_ranks: int = 2,
    scf: bool = True,
    controller: bool = False,
    flightrec_dir: str | None = None,
) -> list[ChaosOutcome]:
    """Run every chaos scenario for one seed; deterministic per seed."""
    sc = _StencilScenario(n_ranks)
    outcomes = []
    # one targeted fault per kind, pinned to an early send of rank 0
    for kind in ("delay", "duplicate", "drop", "corrupt"):
        plan = FaultPlan(seed=seed, inject={(0, 1): kind}, delay=0.001)
        outcomes.append(sc.run(f"one-{kind}", plan, max_retries=2))
    # a probabilistic storm of transient faults.  The network stays lossy
    # across retries (fresh sends draw fresh decisions), so an attempt
    # only succeeds when its ~16-send window draws no drop/corrupt —
    # the retry budget must cover several lossy windows.
    storm = FaultPlan(
        seed=seed, p_drop=0.04, p_corrupt=0.04, p_duplicate=0.06,
        p_delay=0.06, delay=0.0005,
    )
    outcomes.append(sc.run("storm", storm, max_retries=12))
    # a killed rank: permanent — must crash with attribution, not hang
    kill = FaultPlan(seed=seed, kill_at={min(1, n_ranks - 1): 5})
    outcomes.append(sc.run("rank-kill", kill, max_retries=2))
    # paper-scale determinism: the compiled DES replays a 512-rank storm
    # twice from pristine plan replicas; any firing-order drift shows up
    # as a makespan or event-count mismatch
    outcomes.append(_des_replay_scale(seed))
    static = DegradationPolicy(max_restarts=2, adaptive_cadence=False)
    if scf:
        # rank 1 dies mid-iteration 3, after checkpoints 1 and 2
        # committed; the survivor finishes alone (2r -> 1r)
        outcomes.append(_scf_kill(
            "scf-kill-resume", seed, n_bands=1, n_cores=2, nb=1,
            kill_rank=1, policy=static,
        ))
    if controller:
        # band-parallel runs, nb in {2, 4}; the adaptive row exists to
        # compare cadence policies side by side in the printed matrix
        adaptive = DegradationPolicy(max_restarts=2, expected_mtbf=0.5)
        for nb, policy, suffix in (
            (2, static, ""), (4, static, ""), (2, adaptive, "-adaptive"),
        ):
            outcomes.append(_scf_kill(
                f"ctrl-kill-nb{nb}{suffix}", seed, n_bands=4,
                n_cores=4, nb=nb, kill_rank=2, policy=policy,
                flightrec_dir=flightrec_dir,
            ))
    return outcomes


def survival_matrix(outcomes: list[ChaosOutcome]) -> str:
    """The chaos outcomes as an aligned text table."""
    from repro.analysis.formatting import format_table

    return format_table(
        ["scenario", "injected", "attempts", "outcome", "bit-identical", "errors"],
        [
            [
                o.scenario,
                o.injected,
                o.attempts,
                o.outcome,
                "yes" if o.identical else "no",
                ",".join(o.errors) or "-",
            ]
            for o in outcomes
        ],
        title="Chaos survival matrix",
    )


def suite_passed(outcomes: list[ChaosOutcome]) -> bool:
    """The CI gate: transients recover bit-identically, kills attribute.

    * every scenario except the kill ones must end ``recovered`` or
      ``clean`` with a bit-identical result;
    * ``rank-kill`` must end ``crashed`` with a typed error (attribution
      instead of a hang);
    * ``scf-kill-resume`` (when present) must end ``recovered`` with the
      oracle energy;
    * ``ctrl-kill-*`` (when present) must end ``recovered`` with the
      oracle energy on whatever degraded layout the planner chose;
    * an ``unfired`` row — a planned kill the run never reached — fails:
      nothing was survived.
    """
    ok = True
    for o in outcomes:
        if o.scenario == "rank-kill":
            ok &= o.outcome == "crashed" and bool(o.errors)
        else:
            ok &= o.outcome in ("recovered", "clean") and o.identical
    return ok
