"""Closed-form performance model of the distributed FD operation.

The paper's benchmark workload is bulk-synchronous and node-symmetric:
every node holds the same-shaped block of every grid and exchanges with
six neighbours.  That makes a representative-node analysis exact up to
boundary effects, and lets us evaluate 16384-core configurations in
microseconds — the DES (:mod:`repro.core.simrun`) validates the model at
small scale, this model extrapolates.

Model structure (calibration notes in DESIGN.md section 5):

* **Message time** ``L + s/B_eff`` per message, with per-link FIFO
  contention: a link carrying ``m`` messages of ``s`` bytes per round
  costs ``m * (L + s/B_eff)``.
* **Virtual-node mode** (flat approaches): the node's four ranks are
  independent torus endpoints — all their messages are inter-node and the
  four same-direction messages share one link.  This matches the paper's
  measured per-node communication gap between flat and hybrid
  (~4^(1/3) = 1.59x, Fig 6).
* **Overlap**: Flat original sums serialized per-dimension blocking
  exchanges (with the +/- directions serialized and both-side software
  overheads paid — no DMA asynchrony) with computation; the optimized
  approaches run a double-buffered pipeline ``comm_1 +
  sum(max(comp_k, comm_k+1)) + comp_last``.
* **Per-call CPU cost**: every MPI call burns core time (plus MULTIPLE
  lock queueing for hybrid multiple) — the cost batching amortizes.
* **Small-block penalty**: per-point compute cost grows as the ghost
  shells become comparable to the block
  (``(padded/block) ** halo_compute_exponent``).
* **Thread costs**: Hybrid multiple pays one spawn+join per invocation;
  master-only pays a four-thread barrier per *grid* plus a deeper
  quarter-block halo penalty.

Full calibration rationale: DESIGN.md section 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.approaches import Approach
from repro.core.schedule import DEFAULT_HALO_WIDTH, PostSend, timing_plan
from repro.grid.decompose import Decomposition
from repro.grid.grid import GridDescriptor
from repro.machine.spec import BGP_SPEC, MachineSpec
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class FDJob:
    """One benchmark workload: ``n_grids`` grids of one shape."""

    grid: GridDescriptor
    n_grids: int

    def __post_init__(self) -> None:
        check_positive_int(self.n_grids, "n_grids")

    @property
    def total_points(self) -> int:
        return self.n_grids * self.grid.n_points


@dataclass
class FDTiming:
    """Predicted timing of one FD invocation under one configuration."""

    approach_name: str
    n_cores: int
    batch_size: int
    #: wall-clock seconds of the whole invocation
    total: float
    #: per-core computation seconds (actual, including small-block penalty)
    compute: float
    #: per-core computation seconds at large-block throughput (the useful
    #: work; the utilization baseline, matching the paper's CPU-utilization
    #: accounting)
    compute_ideal: float
    #: per-node exposed (non-overlapped) communication seconds
    comm_exposed: float
    #: thread synchronization seconds (spawn/join/barriers/locks)
    sync: float
    #: inter-node bytes sent per node per invocation (Fig 6 right axis)
    comm_bytes_per_node: float
    #: MPI messages sent per rank per invocation
    messages_per_rank: int
    #: bytes of a single surface message (before batching)
    message_bytes: float

    @property
    def utilization(self) -> float:
        """Useful-work fraction of wall-clock time (section VIII).

        The numerator is the computation at large-block throughput, so the
        small-block halo penalty counts as overhead — matching the paper's
        "CPU utilization grows from 36% to 70%" accounting.
        """
        return 0.0 if self.total <= 0 else min(1.0, self.compute_ideal / self.total)


def _pipeline_time(comm: Sequence[float], comp: Sequence[float]) -> float:
    """Wall time of a double-buffered pipeline.

    Round ``k``'s exchange overlaps round ``k-1``'s computation:
    ``comm[0] + sum(max(comp[k-1], comm[k])) + comp[-1]``.
    """
    if len(comm) != len(comp) or not comm:
        raise ValueError("comm and comp must be equal-length, non-empty")
    total = comm[0]
    for k in range(1, len(comm)):
        total += max(comp[k - 1], comm[k])
    return total + comp[-1]


class PerformanceModel:
    """Evaluate FD timings for any approach, core count and batch size."""

    def __init__(self, spec: MachineSpec = BGP_SPEC):
        self.spec = spec

    # -- building blocks -------------------------------------------------------
    def _halo_factor(self, block_shape: Sequence[int]) -> float:
        """Small-block compute penalty.

        The stencil streams the ghost shells as well as the block, so the
        per-point cost grows with (padded volume / block volume); the
        exponent (0..1) captures how much of that extra traffic the caches
        absorb.  Large blocks -> ~1; a 9^3 block at 4096 cores -> ~1.7.
        """
        block = math.prod(block_shape)
        padded = math.prod(b + 2 * DEFAULT_HALO_WIDTH for b in block_shape)
        return (padded / block) ** self.spec.halo_compute_exponent

    def _point_time(self, decomp: Decomposition, threads: int = 1) -> float:
        """Effective per-point compute time for this decomposition's blocks.

        ``threads > 1`` is hybrid master-only's shared-grid kernel: the
        cores split each block along its longest axis, so every thread
        streams a slice plus its halo — a deeper small-block penalty.
        The one formula both timing planes price compute with.
        """
        shape = list(decomp.block_shape(0))
        axis = shape.index(max(shape))
        shape[axis] = max(1, math.ceil(shape[axis] / threads))
        return self.spec.stencil_point_time * self._halo_factor(shape)

    def sequential_time(self, job: FDJob) -> float:
        """One core, no communication: the Fig 5 speedup baseline."""
        return (
            job.total_points
            * self.spec.stencil_point_time
            * self._halo_factor(job.grid.shape)
        )

    def _round_comm_time(
        self, sends: Sequence[PostSend], streams_per_link: int
    ) -> float:
        """Time for one pipeline round's exchange on the critical link.

        ``sends`` is the round's compiled send list (batch sizes already
        folded into each step's byte count); ``streams_per_link`` such
        messages share each direction's link, and the slowest direction
        bounds the round (all six links run simultaneously — the
        section V optimization).  Both planes assume a cyclic (folded)
        domain placement, which balances periodic wrap traffic onto the
        reverse-direction links — so no link carries extra load.
        """
        torus = self.spec.torus
        worst = 0.0
        for s in sends:
            t = streams_per_link * (
                torus.message_overhead + s.nbytes / torus.effective_bandwidth
            )
            worst = max(worst, t)
        return worst

    # -- per-round plan costs (shared by evaluate and step_trace) --------------
    def _plan_costs(
        self,
        job: FDJob,
        approach: Approach,
        n_cores: int,
        batch_size: int,
        ramp_up: bool,
    ):
        """Attach per-round costs to a pipelined plan's representative worker.

        Returns ``(plan, decomp, rep, comp, comm, barriers, spawn_join,
        sync)`` where ``comp[k]``/``comm[k]`` are round ``k``'s
        computation and exchange seconds, and ``barriers[k]`` is the part
        of ``comp[k]`` that is thread-barrier time (non-zero only for
        master-only's per-grid barriers) — kept separate so the model's
        step trace can emit ``GridBarrier`` spans distinct from compute.
        Blocking plans return ``comp``/``comm`` = ``None`` (cost them via
        :meth:`_evaluate_original`).
        """
        plan = timing_plan(
            approach, job.grid, job.n_grids, n_cores, batch_size, ramp_up
        )
        decomp = plan.decomp
        # Representative worker: the first worker of domain 0 (contiguous
        # splitting gives the leading worker the most grids).
        rep = plan.rank_plan(0).workers[0]
        if plan.blocking:
            return plan, decomp, rep, None, None, None, 0.0, 0.0

        t_point = self._point_time(decomp)
        block_points = decomp.max_block_points()
        threads = min(4, n_cores) if plan.uses_thread_team else 1
        ranks_per_node = min(4, n_cores) if not plan.uses_thread_team else 1
        rounds = rep.rounds
        spawn_join = (
            self.spec.threads.spawn_time + self.spec.threads.join_time
            if plan.uses_thread_team
            else 0.0
        )
        # CPU cost of entering the MPI library: every send/recv/wait call
        # burns core time; MULTIPLE-mode calls additionally queue on the
        # rank's lock behind the other threads.  This is the cost batching
        # amortizes (one call moves a whole batch).
        calls_per_round = len(rounds[0].sends) + len(rounds[0].recvs) + 1
        call_cpu = self.spec.threads.mpi_call_cpu_time
        if approach.thread_mode.pays_lock_overhead:
            call_cpu += threads * self.spec.threads.mpi_multiple_overhead
        round_call_cpu = calls_per_round * call_cpu
        if plan.sync_per_grid:
            # Hybrid master-only: batches of whole grids; 4 cores split each
            # grid (so each thread streams a quarter block plus its halo —
            # a deeper small-block penalty); a thread barrier after every
            # grid (the plan's ``GridBarrier`` steps).
            t_quarter = self._point_time(decomp, threads)
            barriers = [
                len(r.grid_ids) * self.spec.threads.barrier_time for r in rounds
            ]
            comp = [
                len(r.grid_ids) * block_points / threads * t_quarter + b
                for r, b in zip(rounds, barriers)
            ]
            # The master thread pays the per-call CPU cost on the comm path.
            comm = [
                self._round_comm_time(r.sends, 1)
                + round_call_cpu
                for r in rounds
            ]
            sync = (
                plan.grid_barriers_per_rank * self.spec.threads.barrier_time
                + spawn_join
            )
        else:
            # Pipelined workers (flat optimized, flat sub-groups, hybrid
            # multiple): each worker double-buffers its own rounds; per
            # round, every worker sharing the node's links exchanges one
            # batch.  Flat optimized has one worker per rank but four
            # virtual-node ranks per node; the node-level variants have
            # ``plan.n_workers`` workers on one domain — either way the
            # per-direction link carries that many streams.
            streams = plan.n_workers if plan.n_workers > 1 else ranks_per_node
            barriers = [0.0] * len(rounds)
            comp = [
                len(r.grid_ids) * block_points * t_point + round_call_cpu
                for r in rounds
            ]
            comm = [
                self._round_comm_time(r.sends, streams)
                for r in rounds
            ]
            sync = spawn_join
            if approach.thread_mode.pays_lock_overhead:
                sync += len(rounds) * calls_per_round * threads * (
                    self.spec.threads.mpi_multiple_overhead
                )
        return plan, decomp, rep, comp, comm, barriers, spawn_join, sync

    # -- the four approaches ---------------------------------------------------
    def evaluate(
        self,
        job: FDJob,
        approach: Approach,
        n_cores: int,
        batch_size: int = 1,
        ramp_up: bool = False,
    ) -> FDTiming:
        """Predict one FD invocation's timing by walking the compiled plan.

        The schedule itself — batching rounds, message sizes, barrier and
        worker structure — comes from :func:`repro.core.schedule.compile_schedule`,
        the same plan the functional engine interprets and the DES replays;
        this model only attaches costs to the plan's representative
        (busiest) worker.
        """
        check_positive_int(n_cores, "n_cores")
        plan, decomp, rep, comp, comm, _, spawn_join, sync = self._plan_costs(
            job, approach, n_cores, batch_size, ramp_up
        )
        if plan.blocking:
            return self._evaluate_original(job, approach, n_cores, decomp, rep)

        threads = min(4, n_cores) if plan.uses_thread_team else 1
        msg_bytes = max(
            (decomp.send_bytes(0, dim, +1, DEFAULT_HALO_WIDTH) for dim in range(3)),
            default=0,
        )
        ideal_per_core = job.total_points / n_cores * self.spec.stencil_point_time

        total = _pipeline_time(comm, comp) + spawn_join
        compute_per_core = sum(comp)
        exposed = total - spawn_join - compute_per_core
        msgs_per_rank = rep.message_count * (threads if plan.uses_thread_team else 1)

        return FDTiming(
            approach_name=approach.name,
            n_cores=n_cores,
            batch_size=batch_size,
            total=total,
            compute=compute_per_core,
            compute_ideal=ideal_per_core,
            comm_exposed=max(0.0, exposed),
            sync=sync,
            comm_bytes_per_node=self._comm_per_node(
                decomp, approach, n_cores, job.n_grids
            ),
            messages_per_rank=msgs_per_rank,
            message_bytes=msg_bytes,
        )

    def _evaluate_original(
        self,
        job: FDJob,
        approach: Approach,
        n_cores: int,
        decomp: Decomposition,
        rep,
    ) -> FDTiming:
        """Blocking plans (flat original): serialized exchange, zero overlap.

        The compiled plan serializes every direction of every grid's
        exchange (a blocking send/receive pair per direction, with no
        DMA-driven overlap between them), so the cost is the plain sum of
        each compiled send plus the round's computation.  ``2L``: a
        blocking exchange pays both the send- and the receive-side
        software overhead (nothing is hidden behind the DMA engine in the
        original code).

        Unlike the optimized schedules, the node's four virtual-mode ranks
        do *not* contend on the shared links here: the blocking pattern
        self-staggers them, so each link carries at most one in-flight
        message (the behaviour implied by the paper's measured 36%
        utilization at 16384 cores — see DESIGN.md section 5).
        """
        torus = self.spec.torus
        t_point = self._point_time(decomp)
        block_points = decomp.max_block_points()

        compute = 0.0
        comm = 0.0
        for r in rep.rounds:
            compute += len(r.grid_ids) * block_points * t_point
            for s in r.sends:
                comm += (
                    2 * torus.message_overhead
                    + s.nbytes / torus.effective_bandwidth
                )
        total = compute + comm
        return FDTiming(
            approach_name=approach.name,
            n_cores=n_cores,
            batch_size=1,
            total=total,
            compute=compute,
            compute_ideal=job.total_points / n_cores * self.spec.stencil_point_time,
            comm_exposed=comm,
            sync=0.0,
            comm_bytes_per_node=self._comm_per_node(
                decomp, approach, n_cores, job.n_grids
            ),
            messages_per_rank=rep.message_count,
            message_bytes=max(
                (decomp.send_bytes(0, dim, +1, DEFAULT_HALO_WIDTH)
                 for dim in range(3)),
                default=0,
            ),
        )

    # -- model-plane span trace --------------------------------------------------
    def step_trace(
        self,
        job: FDJob,
        approach: Approach,
        n_cores: int,
        batch_size: int = 1,
        ramp_up: bool = False,
    ):
        """Reconstruct the modelled timeline as a ``SpanTracer(plane="model")``.

        Walks the same per-round costs :meth:`evaluate` sums and lays them
        out on the representative worker ``rank0.w0`` exactly as the
        :func:`_pipeline_time` recurrence schedules them: round 0's
        exchange is fully exposed (a ``WaitAll`` span), every later round
        overlaps its exchange with the previous round's compute and shows
        only the *exposed* remainder as a ``WaitAll`` span, and thread
        spawn/join appears as a trailing ``JoinBarrier`` span.  Master-only
        rounds split their per-grid thread barriers out of the compute
        span as ``GridBarrier`` spans.

        The result feeds the same :func:`repro.obs.export.utilization_report`
        /  :func:`repro.obs.export.chrome_trace` pipeline as real-engine
        and DES traces, so the three planes are diffable span-for-span:
        the report's makespan equals ``FDTiming.total`` and its ``comm``
        seconds equal ``FDTiming.comm_exposed`` by construction.
        """
        from repro.obs.spans import SpanTracer, StepSpan

        check_positive_int(n_cores, "n_cores")
        plan, decomp, rep, comp, comm, barriers, spawn_join, _ = self._plan_costs(
            job, approach, n_cores, batch_size, ramp_up
        )
        tracer = SpanTracer(plane="model")
        resource = "rank0.w0"
        rounds = rep.rounds

        def add(kind: str, start: float, end: float, r) -> None:
            tracer.add(
                StepSpan(
                    resource=resource,
                    step_kind=kind,
                    start=start,
                    end=end,
                    plane="model",
                    worker=0,
                    grid_ids=r.grid_ids if r is not None else (),
                    seq=r.seq if r is not None else None,
                )
            )

        if plan.blocking:
            # Serialized exchange (flat original): per round a blocking
            # wait for the exchange, then the batch's computation —
            # nothing overlaps (see :meth:`_evaluate_original`).
            torus = self.spec.torus
            t_point = self._point_time(decomp)
            block_points = decomp.max_block_points()
            t = 0.0
            for r in rounds:
                c = sum(
                    2 * torus.message_overhead
                    + s.nbytes / torus.effective_bandwidth
                    for s in r.sends
                )
                if c > 0.0:
                    add("WaitAll", t, t + c, r)
                    t += c
                k = len(r.grid_ids) * block_points * t_point
                add("ComputeInterior", t, t + k, r)
                t += k
            return tracer

        # Pipelined plans: follow the _pipeline_time recurrence
        #   e_0 = comm[0];  e_k = e_{k-1} + max(comp[k-1], comm[k])
        # emitting compute spans at e_{k-1} and the exposed tail of each
        # exchange (if any) as a WaitAll span.
        e = comm[0]
        add("WaitAll", 0.0, e, rounds[0])

        def add_comp(k: int, start: float) -> float:
            barrier = barriers[k]
            work = comp[k] - barrier
            add("ComputeInterior", start, start + work, rounds[k])
            if barrier > 0.0:
                add("GridBarrier", start + work, start + comp[k], rounds[k])
            return start + comp[k]

        for k in range(1, len(rounds)):
            comp_end = add_comp(k - 1, e)
            e = e + max(comp[k - 1], comm[k])
            if e > comp_end:
                add("WaitAll", comp_end, e, rounds[k])
        end = add_comp(len(rounds) - 1, e)
        if spawn_join > 0.0:
            add("JoinBarrier", end, end + spawn_join, None)
        return tracer

    def _comm_per_node(
        self, decomp: Decomposition, approach: Approach, n_cores: int, n_grids: int
    ) -> float:
        """Inter-node bytes sent per node per invocation (Fig 6)."""
        per_domain = decomp.comm_bytes(0, DEFAULT_HALO_WIDTH) * n_grids
        if not approach.decompose_per_rank:
            # node-level decomposition (hybrid modes, flat sub-groups):
            # the node's traffic is one domain's surface over all grids
            return float(per_domain)
        return float(per_domain * (min(4, n_cores) if n_cores >= 4 else n_cores))

    # -- batch-size search -------------------------------------------------------
    def batch_candidates(
        self, job: FDJob, approach: Approach, n_cores: int
    ) -> list[int]:
        """Default batch-size candidates: powers of two up to the grids
        available per compute unit.  Shared by :meth:`best_batch_size` and
        the :class:`~repro.core.planner.Planner`, so both search the same
        space."""
        if not approach.supports_batching:
            return [1]
        per_unit = job.n_grids
        if approach.is_hybrid and not approach.sync_per_grid:
            per_unit = max(1, job.n_grids // min(4, n_cores))
        candidates = [1]
        while candidates[-1] * 2 <= per_unit:
            candidates.append(candidates[-1] * 2)
        return candidates

    def best_batch_size(
        self,
        job: FDJob,
        approach: Approach,
        n_cores: int,
        candidates: Optional[Sequence[int]] = None,
        ramp_up: bool = False,
    ) -> FDTiming:
        """The fastest timing over candidate batch sizes.

        The paper finds "the best batch-size" per configuration (Figs 6, 7);
        default candidates come from :meth:`batch_candidates`.
        """
        if not approach.supports_batching:
            return self.evaluate(job, approach, n_cores, 1)
        if candidates is None:
            candidates = self.batch_candidates(job, approach, n_cores)
        best: Optional[FDTiming] = None
        for b in candidates:
            t = self.evaluate(job, approach, n_cores, b, ramp_up=ramp_up)
            if best is None or t.total < best.total:
                best = t
        assert best is not None
        return best
