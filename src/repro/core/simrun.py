"""Message-level replay of compiled schedule plans on the DES machine.

Where :mod:`repro.core.perfmodel` is closed-form, this module *executes*
the schedules: every rank (or hybrid thread) is a DES process issuing
simulated-MPI calls and core computations, with exact link contention and
lock serialization.  The schedule itself is not built here — the runner
replays the same :class:`repro.core.schedule.SchedulePlan` the functional
engine interprets, mapping each step to simulated calls with timing
(``PostSend``/``PostRecv`` to ``isend``/``irecv``, ``ComputeInterior`` to
core occupancy, ``GridBarrier`` to the thread-barrier cost).  It is exact
but O(ranks x grids x messages) in events, so it is meant for small
configurations — the test suite uses it to validate the analytic model,
which then extrapolates to paper scale.

Domain placement
----------------

Flat (virtual-node) ranks are placed *cyclically*: domain coordinates are
taken modulo the node grid, so neighbouring domains always sit on
neighbouring (or the same-distance) nodes and — matching the paper's
measured per-node communication — no FD neighbours share a node.  When the
domain grid is not component-wise divisible by the node grid, a spread
mapping (round-robin over nodes) is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.approaches import Approach
from repro.core.perfmodel import FDJob
from repro.core.schedule import (
    ApplyLocalWraps,
    BandSchedulePlan,
    ComputeBoundary,
    ComputeInterior,
    GridBarrier,
    PartialGemm,
    PostRecv,
    PostSend,
    RankPlan,
    RingSendRecv,
    WaitAll,
    WorkerPlan,
    compile_schedule,
    message_tag,
    timing_plane_workers,
)
from repro.des.core import Event
from repro.obs.spans import SpanTracer
from repro.grid.decompose import Decomposition
from repro.transport.faults import FaultPlan
from repro.machine.machine import Machine
from repro.machine.partition import NodeMode
from repro.machine.spec import BGP_SPEC, MachineSpec
from repro.smpi.comm import RankContext, SimComm
from repro.util.validation import check_positive_int

Proc = Generator[Event, object, None]

HALO_WIDTH = 2  # the paper's stencil radius

#: tag offset for wire copies the receiver discards (corrupt originals,
#: spurious duplicates): they occupy links and counters but match no
#: posted receive.  Far above every real tag space (collectives end at
#: ``1 << 28`` + rounds).
_GHOST_TAG_OFFSET = 1 << 30


@dataclass
class SimResult:
    """Outcome of one simulated FD invocation."""

    approach_name: str
    n_cores: int
    batch_size: int
    total: float
    utilization: float
    comm_bytes_per_node: float
    messages: int
    #: activity trace (compute spans per core, transfers per link) as a
    #: ``SpanTracer(plane="sim")``; only populated when
    #: ``simulate_fd(..., trace=True)``
    trace: Optional[SpanTracer] = None
    #: schedule-step trace in the unified span schema (one StepSpan per
    #: replayed IR step, simulated time); only populated when
    #: ``simulate_fd(..., step_tracer=...)`` — diffable against a real
    #: engine trace of the same plan
    step_trace: Optional[SpanTracer] = None
    #: faults the fault plan injected during the replay (0 without one)
    fault_events: int = 0
    #: which engine produced this result: "reference" (generator processes)
    #: or "compiled" (table-driven state machines, simrun_compiled)
    engine: str = ""
    #: schedule-IR steps replayed across all ranks (plan size metric)
    ir_steps: int = 0
    #: queue entries the DES fired during the replay (throughput metric)
    events: int = 0


def _node_mode_for(approach: Approach, n_cores: int) -> tuple[NodeMode, int]:
    """(node mode, node count) realizing ``n_cores`` for an approach."""
    if n_cores >= 4:
        if n_cores % 4:
            raise ValueError(f"n_cores must be 1, 2 or a multiple of 4, got {n_cores}")
        n_nodes = n_cores // 4
        mode = NodeMode.SMP if approach.is_hybrid else NodeMode.VN
    elif n_cores == 2:
        n_nodes, mode = 1, (NodeMode.SMP if approach.is_hybrid else NodeMode.DUAL)
    elif n_cores == 1:
        n_nodes, mode = 1, NodeMode.SMP
    else:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    return mode, n_nodes


def _domain_to_rank(
    decomp: Decomposition, machine: Machine, placement: str = "auto"
) -> list[int]:
    """Place domains on ranks.

    ``cyclic`` folds domain coordinates modulo the node grid — every FD
    neighbour pair lands on adjacent nodes and wrap traffic balances onto
    reverse links (the placement a tuned BG/P mapfile achieves).
    ``spread`` deals domains round-robin over nodes — a naive placement
    whose neighbours can be many hops apart; kept for the placement
    ablation.  ``auto`` uses cyclic when the domain grid divides the node
    grid component-wise, else spread.
    """
    if placement not in ("auto", "cyclic", "spread"):
        raise ValueError(
            f"placement must be 'auto', 'cyclic' or 'spread', got {placement!r}"
        )
    n_nodes = machine.n_nodes
    rpn = machine.mode.ranks_per_node
    dshape = decomp.domains_shape
    nshape = machine.partition.shape
    divisible = (
        all(d % n == 0 for d, n in zip(dshape, nshape))
        and decomp.n_domains == n_nodes * rpn
    )
    if placement == "cyclic" and not divisible:
        raise ValueError(
            f"cyclic placement needs the domain grid {dshape} to divide the "
            f"node grid {nshape} component-wise"
        )
    cyclic = divisible if placement == "auto" else placement == "cyclic"
    mapping: list[int] = [0] * decomp.n_domains
    slots = [0] * n_nodes
    for domain in range(decomp.n_domains):
        if cyclic:
            c = decomp.coords_of(domain)
            node = machine.topology.node_at(tuple(ci % ni for ci, ni in zip(c, nshape)))
        else:
            node = domain % n_nodes
        slot = slots[node]
        if slot >= rpn:
            raise ValueError(
                f"placement overflow: node {node} already has {rpn} ranks "
                f"(domains {decomp.n_domains}, nodes {n_nodes})"
            )
        slots[node] = slot + 1
        mapping[domain] = node * rpn + slot
    return mapping


class _FDSimulation:
    """Shared state of one simulated invocation."""

    def __init__(
        self,
        job: FDJob,
        approach: Approach,
        n_cores: int,
        batch_size: int,
        ramp_up: bool,
        spec: MachineSpec,
        placement: str = "auto",
        trace: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        step_tracer: Optional[SpanTracer] = None,
    ) -> None:
        check_positive_int(n_cores, "n_cores")
        approach.validate_batch_size(batch_size)
        self.job = job
        self.approach = approach
        self.n_cores = n_cores
        self.batch_size = batch_size
        self.ramp_up = ramp_up
        self.spec = spec
        self.fault_plan = fault_plan
        self.step_tracer = step_tracer
        mode, n_nodes = _node_mode_for(approach, n_cores)
        self.tracer = SpanTracer(plane="sim") if trace else None
        self.machine = Machine(n_nodes, mode, spec, tracer=self.tracer)
        self.comm = SimComm(self.machine, approach.thread_mode)
        self.decomp = Decomposition(job.grid, approach.domains_for(n_cores))
        if self.decomp.n_domains != self.comm.size and approach.is_hybrid:
            # hybrid: one domain per node; ranks == nodes in SMP mode.
            assert self.decomp.n_domains == n_nodes
        self.rank_of_domain = _domain_to_rank(self.decomp, self.machine, placement)
        self.block_points = self.decomp.max_block_points()
        # Small-block halo penalty, identical to the analytic model's.
        def halo_point_time(shape: list[int]) -> float:
            padded = math.prod(b + 2 * HALO_WIDTH for b in shape)
            factor = (padded / math.prod(shape)) ** spec.halo_compute_exponent
            return spec.stencil_point_time * factor

        block = list(self.decomp.block_shape(0))
        self.t_point = halo_point_time(block)
        # master-only threads each stream a quarter block plus its halo
        threads = min(4, n_cores)
        quarter = list(block)
        axis = quarter.index(max(quarter))
        quarter[axis] = max(1, math.ceil(quarter[axis] / threads))
        self.t_point_quarter = halo_point_time(quarter)
        # The schedule is not built here: compile (or fetch from cache)
        # the same plan the functional engine interprets and replay it.
        self.plan = compile_schedule(
            approach,
            self.decomp,
            job.n_grids,
            batch_size,
            ramp_up,
            halo_width=HALO_WIDTH,
            n_workers=timing_plane_workers(approach, n_cores),
        )

    # -- fault modeling --------------------------------------------------------
    def _fault_clock(self, ctx: RankContext) -> Proc:
        """Advance the kill clock; a killed rank pays the restart time.

        The DES models the *recovery overhead*, not the crash itself: the
        supervisor restarts the rank from its last checkpoint, so the
        rank (and, through stalled messages, its neighbours) loses
        ``restart_time`` simulated seconds — the cost the MTBF sweep in
        :mod:`repro.analysis.resilience` integrates over a run.
        """
        fp = self.fault_plan
        idx = fp.next_op(ctx.rank)
        if fp.should_kill(ctx.rank, idx):
            yield ctx.sim.timeout(fp.restart_time)

    def _faulty_send(self, ctx: RankContext, dst: int, nbytes: float, tag: int) -> Proc:
        """A PostSend under the fault plan.

        * *delay* — the message leaves late.
        * *drop* — the receiver times out after ``retransmit_timeout``
          and the sender retransmits: one copy travels, late.
        * *corrupt* — the corrupt copy travels (ghost tag: it reaches the
          wire and the byte counters but matches no receive — the
          receiver rejects its checksum), then the good copy follows
          after the retransmit window.
        * *duplicate* — a spurious extra copy travels alongside.
        """
        fp = self.fault_plan
        yield from self._fault_clock(ctx)
        kind = fp.take_fault(ctx.rank, fp.next_send(ctx.rank), "isend")
        if kind == "delay":
            yield ctx.sim.timeout(fp.delay)
        elif kind == "drop":
            yield ctx.sim.timeout(fp.retransmit_timeout)
        elif kind == "corrupt":
            yield from ctx.isend(dst, nbytes, tag + _GHOST_TAG_OFFSET)
            yield ctx.sim.timeout(fp.retransmit_timeout)
        elif kind == "duplicate":
            yield from ctx.isend(dst, nbytes, tag + _GHOST_TAG_OFFSET)
        yield from ctx.isend(dst, nbytes, tag)

    # -- step replay ----------------------------------------------------------
    def replay_worker(
        self, ctx: RankContext, wp: WorkerPlan, domain: int = 0
    ) -> Proc:
        """Replay one worker's compiled steps as timed simulated-MPI calls.

        Besides the steps themselves, the worker pays the per-round CPU
        cost of entering the MPI library (sends + recvs + one waitall per
        exchange round) — charged when a round's calls are issued, which
        under double buffering is one round ahead of the ``WaitAll`` being
        replayed.  Blocking plans pay no separate call CPU (the fixed cost
        sits inside the network model's per-message overhead).

        With a ``step_tracer``, every replayed step also lands as a
        :class:`~repro.obs.spans.StepSpan` at simulated time on resource
        ``rank{domain}.w{worker}`` — the same naming the real engine's
        :func:`repro.obs.spans.engine_hook` uses, so the two traces diff
        step-for-step.
        """
        plan = self.plan
        rounds = wp.rounds
        tracer = self.step_tracer
        resource = f"rank{domain}.w{wp.index}"
        t_call = self.spec.threads.mpi_call_cpu_time
        lookahead = 1 if plan.double_buffered else 0
        next_round = 0
        pending: dict[int, list] = {}
        for st in wp.steps:
            step_t0 = ctx.sim.now
            if (
                not plan.blocking
                and t_call
                and isinstance(st, (PostSend, PostRecv, WaitAll))
            ):
                limit = st.seq + (lookahead if isinstance(st, WaitAll) else 0)
                while next_round < len(rounds) and rounds[next_round].seq <= limit:
                    r = rounds[next_round]
                    next_round += 1
                    yield from ctx.compute(
                        (len(r.sends) + len(r.recvs) + 1) * t_call
                    )
            if isinstance(st, PostSend):
                dst = self.rank_of_domain[st.dst] + st.slot
                tag = message_tag(st.seq, st.dim, st.step)
                if self.fault_plan is not None:
                    yield from self._faulty_send(ctx, dst, st.nbytes, tag)
                else:
                    yield from ctx.isend(dst, st.nbytes, tag)
            elif isinstance(st, PostRecv):
                if self.fault_plan is not None:
                    yield from self._fault_clock(ctx)
                req = yield from ctx.irecv(
                    self.rank_of_domain[st.src] + st.slot,
                    message_tag(st.seq, st.dim, st.step),
                )
                pending.setdefault(st.seq, []).append(req)
            elif isinstance(st, WaitAll):
                if self.fault_plan is not None:
                    yield from self._fault_clock(ctx)
                reqs = pending.pop(st.seq, [])
                if reqs:
                    yield from ctx.waitall(reqs)
            elif isinstance(st, ComputeInterior):
                if plan.sync_per_grid:
                    yield from self._quarter_compute(ctx)
                else:
                    yield from ctx.compute(self.block_points * self.t_point)
            elif isinstance(st, GridBarrier):
                yield ctx.sim.timeout(self.spec.threads.barrier_time)
            elif isinstance(st, (ApplyLocalWraps, ComputeBoundary)):
                # in-block memcpys/zeroing: free at this fidelity (their
                # cost is inside the calibrated per-point compute time)
                pass
            # JoinBarrier: the node wrapper pays the join cost once
            if tracer is not None:
                tracer.record_step(resource, st, wp.index, step_t0, ctx.sim.now)

    def _quarter_compute(self, ctx: RankContext) -> Proc:
        """Master-only's shared-grid kernel: four cores split one grid."""
        threads = min(4, self.n_cores)
        per_thread_points = math.ceil(self.block_points / threads)
        workers = [
            ctx.sim.spawn(
                ctx.on_core(t).compute(per_thread_points * self.t_point_quarter),
                name=f"mo-compute-core{t}",
            )
            for t in range(threads)
        ]
        yield ctx.sim.all_of(workers)

    def node_program(self, ctx: RankContext, rp: RankPlan) -> Proc:
        """One rank's program: its workers, plus thread team spawn/join."""
        if self.plan.uses_thread_team:
            yield ctx.sim.timeout(self.spec.threads.spawn_time)
            team = [
                ctx.sim.spawn(
                    self.replay_worker(ctx.on_core(wp.index), wp, rp.domain),
                    name=f"{self.approach.name}-d{rp.domain}.t{wp.index}",
                )
                for wp in rp.workers
                if wp.steps
            ]
            if team:
                yield ctx.sim.all_of(team)
            yield ctx.sim.timeout(self.spec.threads.join_time)
        else:
            for wp in rp.workers:
                yield from self.replay_worker(ctx, wp, rp.domain)

    # -- orchestration --------------------------------------------------------
    def run(self) -> SimResult:
        ir_steps = 0
        for domain in range(self.decomp.n_domains):
            rank = self.rank_of_domain[domain]
            rp = self.plan.rank_plan(domain)
            ir_steps += sum(len(wp.steps) for wp in rp.workers)
            if self.plan.workers_are_ranks:
                # flat sub-groups (section VII-A): the node's virtual-mode
                # ranks each replay their own worker, offset by slot.
                for wp in rp.workers:
                    if wp.steps:
                        self.machine.sim.spawn(
                            self.replay_worker(
                                self.comm.context(rank + wp.slot), wp, domain
                            ),
                            name=f"{self.approach.name}-d{domain}.{wp.slot}",
                        )
            else:
                self.machine.sim.spawn(
                    self.node_program(self.comm.context(rank), rp),
                    name=f"{self.approach.name}-d{domain}",
                )
        total = self.machine.sim.run()
        inter_bytes = sum(self.machine.torus.bytes_sent.values())
        return SimResult(
            approach_name=self.approach.name,
            n_cores=self.n_cores,
            batch_size=self.batch_size,
            total=total,
            utilization=self.machine.utilization(total),
            comm_bytes_per_node=inter_bytes / self.machine.n_nodes,
            messages=self.comm.messages_sent,
            trace=self.tracer,
            step_trace=self.step_tracer,
            fault_events=(
                len(self.fault_plan.events) if self.fault_plan is not None else 0
            ),
            engine="reference",
            ir_steps=ir_steps,
            events=self.machine.sim.events_processed,
        )


def simulate_fd(
    job: FDJob,
    approach: Approach,
    n_cores: int,
    batch_size: int = 1,
    ramp_up: bool = False,
    spec: MachineSpec = BGP_SPEC,
    placement: str = "auto",
    trace: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    step_tracer: Optional[SpanTracer] = None,
    engine: str = "compiled",
) -> SimResult:
    """Simulate one FD invocation at message level on the DES machine.

    Message-level exact.  The default ``engine="compiled"``
    (:mod:`repro.core.simrun_compiled`) deduplicates per-rank plans and
    replays micro-op tables on the DES callback fast path, which keeps
    exact replay feasible at paper-scale rank counts;
    ``engine="reference"`` runs the original generator-process
    interpreter, kept as the canonical semantics the compiled engine is
    diffed against bit-for-bit (``tests/test_engine_equivalence.py``).

    ``fault_plan`` replays the same :class:`~repro.transport.faults.FaultPlan`
    the functional plane injects, as *timing* perturbations: delays,
    retransmit windows, spurious wire copies, and restart penalties for
    killed ranks.  The plan's counters advance during the replay — pass
    ``plan.replica()`` to keep the original pristine.

    ``step_tracer`` (a :class:`~repro.obs.spans.SpanTracer`, typically
    ``SpanTracer(plane="sim")``) records every replayed schedule-IR step
    as a unified span at simulated time; the result's ``step_trace``
    carries it for export/diffing against the other planes.
    """
    if engine == "compiled":
        # deferred import: simrun_compiled imports from this module
        from repro.core.simrun_compiled import _CompiledFDSimulation

        cls = _CompiledFDSimulation
    elif engine == "reference":
        cls = _FDSimulation
    else:
        raise ValueError(
            f"engine must be 'compiled' or 'reference', got {engine!r}"
        )
    return cls(
        job, approach, n_cores, batch_size, ramp_up, spec, placement, trace,
        fault_plan, step_tracer,
    ).run()


def simulate_spec(
    jobspec,
    spec: MachineSpec = BGP_SPEC,
    placement: Optional[str] = None,
    trace: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    step_tracer: Optional[SpanTracer] = None,
    engine: str = "compiled",
) -> SimResult:
    """Replay one FD invocation of a :class:`~repro.core.jobspec.JobSpec`.

    For ``n_band_groups > 1`` the replayed invocation is one band
    group's (``G/nb`` grids on ``P/nb`` cores — groups run concurrently,
    so that *is* the step's FD wall time); the ring pass is priced
    separately via :func:`simulate_band_plan`, which is how
    :meth:`~repro.core.planner.Planner.cross_check` combines the two.

    ``placement`` defaults to the spec's own serialized
    ``runtime.placement``; pass a strategy name to override it for one
    replay without rewriting the spec.
    """
    if step_tracer is not None and getattr(step_tracer, "config_hash", None) is None:
        step_tracer.config_hash = jobspec.config_hash()
    if placement is None:
        placement = jobspec.runtime.placement
    return simulate_fd(
        jobspec.group_job(),
        jobspec.approach_obj(),
        jobspec.group_cores,
        batch_size=jobspec.layout.batch_size,
        ramp_up=jobspec.layout.ramp_up,
        spec=spec,
        placement=placement,
        trace=trace,
        fault_plan=fault_plan,
        step_tracer=step_tracer,
        engine=engine,
    )


# -- band-parallel replay -----------------------------------------------------
@dataclass
class BandSimResult:
    """Outcome of one simulated band-orthogonalization (ring) pass."""

    n_groups: int
    total: float
    messages: int
    step_trace: Optional[SpanTracer] = None


@dataclass
class BandStepSimResult:
    """One full simulated SCF-relevant step under band parallelization."""

    n_groups: int
    fd: float
    subspace: float
    total: float


def simulate_band_plan(
    plan: "BandSchedulePlan",
    spec: MachineSpec = BGP_SPEC,
    step_tracer: Optional[SpanTracer] = None,
) -> BandSimResult:
    """Replay one compiled :class:`BandSchedulePlan` on the DES machine.

    The ring only talks *between* groups — every rank exchanges with the
    same-domain peer of the neighbouring group and all domains of a group
    progress in lockstep — so one representative rank per group (domain
    0) reproduces the critical path: ``nb`` SMP nodes, each a DES process
    walking its group's step list.  :class:`PartialGemm` steps occupy the
    core at the calibrated GEMM rate; :class:`RingSendRecv` posts the
    non-blocking pair that the following GEMM overlaps; ``WaitAll``
    completes the stage.  This is the same step sequence the functional
    executor interprets and the analytic model walks.
    """
    from repro.core.wholeapp import WholeAppModel

    nb = plan.n_groups
    machine = Machine(nb, NodeMode.SMP, spec)
    comm = SimComm(machine)
    rate = spec.node.core.peak_flops * WholeAppModel.GEMM_EFFICIENCY

    def group_program(group: int) -> Proc:
        ctx = comm.context(group)
        # at most one ring stage is in flight at a time: the plan posts
        # RingSendRecv, overlaps one PartialGemm, then WaitAll completes
        pending: list = []
        for st in plan.group_steps(group):
            t0 = machine.sim.now
            if isinstance(st, RingSendRecv):
                yield from ctx.isend(st.dst_group, st.nbytes, tag=st.tag)
                req = yield from ctx.irecv(src=st.src_group, tag=st.tag)
                pending.append(req)
            elif isinstance(st, PartialGemm):
                yield from ctx.compute(st.flops / rate)
            elif isinstance(st, WaitAll):
                reqs, pending = pending, []
                yield from ctx.waitall(reqs)
            else:  # pragma: no cover - the compiler emits no other kinds
                continue
            if step_tracer is not None:
                step_tracer.record_step(
                    f"bg{group}.rank0.w0", st, 0, t0, machine.sim.now
                )

    for g in range(nb):
        machine.sim.spawn(group_program(g), name=f"band-group-{g}")
    total = machine.sim.run()
    return BandSimResult(
        n_groups=nb,
        total=total,
        messages=comm.messages_sent,
        step_trace=step_tracer,
    )


def simulate_band_step(
    job: FDJob,
    n_cores: int,
    n_band_groups: int,
    spec: MachineSpec = BGP_SPEC,
) -> BandStepSimResult:
    """DES counterpart of :meth:`BandParallelModel.evaluate`.

    Simulates one group's FD work (``G/nb`` grids on ``P/nb`` cores,
    hybrid multiple, at the batch size the analytic model would pick)
    plus the ring orthogonalization replay of the *same* compiled band
    plan the model walks — the cross-plane agreement test pins the two
    totals to <= 5%.
    """
    from repro.core.approaches import HYBRID_MULTIPLE
    from repro.core.bandpar import BandParallelModel
    from repro.core.wholeapp import WholeAppModel

    model = BandParallelModel(spec)
    layout = model.layout(job, n_cores, n_band_groups)
    nb = layout.n_groups
    group_cores = n_cores // nb
    group_job = FDJob(job.grid, job.n_grids // nb)
    fd_timing = model.fd_model.best_batch_size(
        group_job, HYBRID_MULTIPLE, group_cores
    )
    fd = simulate_fd(
        group_job,
        HYBRID_MULTIPLE,
        group_cores,
        batch_size=fd_timing.batch_size,
        spec=spec,
    )
    band = simulate_band_plan(model.band_plan(job, n_cores, nb), spec=spec)
    return BandStepSimResult(
        n_groups=nb,
        fd=fd.total,
        subspace=band.total,
        total=fd.total * WholeAppModel.FD_APPLICATIONS_PER_SCF + band.total,
    )
