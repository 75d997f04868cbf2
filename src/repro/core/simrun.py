"""Message-level replay of compiled schedule plans on the DES machine.

Where :mod:`repro.core.perfmodel` is closed-form, this module *executes*
the schedules: every rank (or hybrid thread) issues simulated MPI calls
and core computations, with exact link contention and lock
serialization.  The schedule itself is not built here — the replay
walks the same :class:`repro.core.schedule.SchedulePlan` the functional
engine interprets.

One replay core
---------------

Every replay runs on one table-driven micro-op machine:

* **Micro-op programs** — a worker's step list is lowered once into a
  flat list of ``(op, operands...)`` rows.  All per-step branching
  (blocking vs pipelined, lookahead call-CPU charging, thread mode,
  fault instrumentation, step tracing) happens at lowering time;
  replay is a tight opcode loop (:class:`_Worker`).
* **Callback chains instead of processes** — blocking ops schedule bound
  methods on the simulator's callback queue
  (:meth:`~repro.des.core.Simulator.call_at` /
  :meth:`~repro.des.core.Simulator.call_soon`).  Messages are
  :class:`_Transfer` chains that hold every link of their
  dimension-ordered torus route (acquired in canonical order, so
  concurrent transfers cannot deadlock); links and per-rank MPI locks
  are capacity-1 FIFO :class:`_CbLock`\\ s; receives match by
  ``(source, tag)`` in FIFO order.

One step lowering (:meth:`_Replay._lower`) turns a compiled step list
into micro-ops; a plan's :meth:`~repro.core.schedule.SchedulePlan
.directions` give each worker its peer tables.  Two plan replays use it:

* FD :class:`~repro.core.schedule.SchedulePlan`\\ s
  (:func:`simulate_fd`).  Ranks are grouped by their *direction
  signature* (``(dim, step, nbytes)`` of each remote send/recv — exactly
  the inputs a rank plan is derived from, besides peer ids); one
  representative plan is lowered per signature, which on a regular
  domain grid is a handful of programs for thousands of ranks.
* :class:`~repro.core.schedule.BandSchedulePlan` rings
  (:func:`simulate_band_plan`), whose stages compile to the same
  ``PostSend``/``PostRecv``/``WaitAll`` steps.

Point-to-point message sets (:func:`_replay_messages`), which Fig. 2's
ping-pong runs on, are written as micro-ops directly: they have no
direction geometry to lower.

Exactness contract
------------------

``tests/data/des_golden.json`` freezes, bit for bit, what the retired
generator-process engine produced on 18 FD configurations (including
seeded fault storms and rank kills), four band rings and the 24 Fig. 2
sizes: totals, utilization, byte and message counters, fired-event
counts and sha256 digests of the full activity and step traces.  The
DES fires simultaneous entries in scheduling order, so any change in
the number or order of queue entries a primitive issues shows up there
(``tools/gen_des_golden.py`` checks, ``tests/test_engine_equivalence.py``
runs it in tier-1).

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
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.approaches import Approach
from repro.core.perfmodel import FDJob, PerformanceModel
from repro.core.schedule import (
    BandSchedulePlan,
    ComputeInterior,
    GridBarrier,
    PartialGemm,
    PostRecv,
    PostSend,
    WaitAll,
    timing_plan,
)
from repro.core.wholeapp import WholeAppModel
from repro.grid.decompose import Decomposition
from repro.machine.machine import Machine
from repro.machine.partition import NodeMode
from repro.machine.spec import BGP_SPEC, MachineSpec
from repro.obs.spans import SpanTracer
from repro.transport.faults import FaultPlan
from repro.util.validation import check_positive_int

#: tag offset for wire copies the receiver discards (corrupt originals,
#: spurious duplicates): they occupy links and counters but match no
#: posted receive.  Far above every real tag space.
_GHOST_TAG_OFFSET = 1 << 30

# -- micro-op opcodes ---------------------------------------------------------
#: occupy the worker's core for ``secs`` (operands: secs)
OP_COMPUTE = 0
#: MPI call overhead + spawn one transfer (operands: dir_idx, nbytes, tag)
OP_SEND = 1
#: MPI call overhead + post/match one receive (operands: dir_idx, tag, seq)
OP_RECV = 2
#: complete every receive of one exchange (operands: seq)
OP_WAITALL = 3
#: pure delay, e.g. the per-grid thread barrier (operands: secs)
OP_TIMEOUT = 4
#: master-only quarter-block team compute (operands: threads, secs)
OP_QUARTER = 5
#: capture the step start time (step tracing only)
OP_T0 = 6
#: record one replayed step (operands: step, worker_index)
OP_STEP = 7
#: advance the fault plan's kill clock (fault replay only)
OP_FAULT_CLOCK = 8
#: a PostSend under the fault plan (operands: dir_idx, nbytes, tag)
OP_FAULT_SEND = 9


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
    #: schedule-IR steps replayed across all ranks (plan size metric)
    ir_steps: int = 0
    #: queue entries the DES fired during the replay (throughput metric)
    events: int = 0


def _node_mode_for(approach: Approach, n_cores: int) -> tuple[NodeMode, int]:
    """(node mode, node count) realizing ``n_cores >= 1`` for an approach."""
    if n_cores == 1:
        return NodeMode.SMP, 1
    if n_cores == 2:
        return (NodeMode.SMP if approach.is_hybrid else NodeMode.DUAL), 1
    if n_cores % 4:
        raise ValueError(
            "the DES needs 1, 2 or a multiple of 4 cores (whole BG/P "
            f"nodes), got {n_cores}"
        )
    return (NodeMode.SMP if approach.is_hybrid else NodeMode.VN), n_cores // 4


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
            f"cyclic placement needs one domain per rank ({decomp.n_domains} "
            f"domains, {n_nodes * rpn} ranks) and the domain grid {dshape} "
            f"to divide the node grid {nshape} component-wise"
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


# -- the replay core ----------------------------------------------------------
class _CbLock:
    """Capacity-1 FIFO lock built from simulator callbacks.

    A free acquire schedules the continuation (1 queue entry), a
    contended one queues silently, and a release hands the slot to the
    oldest waiter (1 entry) or frees the lock (0 entries).
    """

    __slots__ = ("sim", "busy", "queue")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.busy = False
        self.queue: deque = deque()

    def acquire(self, fn, *args) -> None:
        if self.busy:
            self.queue.append((fn, args))
        else:
            self.busy = True
            self.sim.call_soon(fn, *args)

    def release(self) -> None:
        if self.queue:
            fn, args = self.queue.popleft()
            self.sim.call_soon(fn, *args)
        else:
            self.busy = False


class _Path:
    """One (src node, dst node) torus path, shared by every message on it."""

    __slots__ = ("same", "src_node", "links", "names", "label", "hops", "durs")

    def __init__(self, same, src_node, links, names, label, hops) -> None:
        self.same = same
        self.src_node = src_node
        self.links = links
        self.names = names
        self.label = label
        self.hops = hops
        #: nbytes -> message duration (varies per round under ramp-up)
        self.durs: dict = {}


class _Recv:
    """One posted receive: completion flag + the waitall group waiting on it."""

    __slots__ = ("done", "group")

    def __init__(self) -> None:
        self.done = False
        self.group = None


class _WaitGroup:
    """Counts deliveries, resumes the worker on the last one."""

    __slots__ = ("sim", "worker", "remaining")

    def __init__(self, sim, worker, remaining) -> None:
        self.sim = sim
        self.worker = worker
        self.remaining = remaining

    def _on_child(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.sim.call_soon(self.worker._advance)


class _Transfer:
    """One in-flight message as a callback chain."""

    __slots__ = ("eng", "path", "src_rank", "dst_rank", "nbytes", "tag",
                 "start", "_i")

    def __init__(self, eng, path, src_rank, dst_rank, nbytes, tag) -> None:
        self.eng = eng
        self.path = path
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.nbytes = nbytes
        self.tag = tag
        self.start = 0.0
        self._i = 0

    def _start(self) -> None:
        # the transfer's first hop: lazily touch the source node (it
        # joins the utilization denominator), then claim the route
        eng = self.eng
        p = self.path
        src = p.src_node
        if src not in eng.nodes:
            eng.nodes[src] = [0.0] * eng.n_node_cores
        if p.same:
            # intra-node memcpy: overhead only, no links, no byte counters
            sim = eng.sim
            sim.call_at(sim.now + eng.msg_overhead, self._self_fire)
        else:
            self._i = 0
            p.links[0].acquire(self._got)

    def _got(self) -> None:
        p = self.path
        i = self._i + 1
        self._i = i
        links = p.links
        if i < len(links):
            links[i].acquire(self._got)
        else:
            sim = self.eng.sim
            self.start = sim.now
            dur = p.durs.get(self.nbytes)
            if dur is None:
                dur = self.eng.torus_spec.message_time(self.nbytes, hops=p.hops)
                p.durs[self.nbytes] = dur
            sim.call_at(sim.now + dur, self._fired)

    def _fired(self) -> None:
        self.eng.sim.call_soon(self._done)

    def _self_fire(self) -> None:
        self.eng.sim.call_soon(self._self_done)

    def _self_done(self) -> None:
        eng = self.eng
        eng.messages_sent += 1
        eng._deliver(self.dst_rank, self.src_rank, self.tag)

    def _done(self) -> None:
        eng = self.eng
        p = self.path
        tb = eng.torus_bytes
        src = p.src_node
        tb[src] = tb.get(src, 0) + int(self.nbytes)
        for lk in p.links:
            lk.release()
        buf = eng.trace_buf
        if buf is not None:
            start = self.start
            now = eng.sim.now
            label = p.label
            for name in p.names:
                buf.append((start, now, name, label))
        eng.messages_sent += 1
        eng._deliver(self.dst_rank, self.src_rank, self.tag)


class _Worker:
    """One replaying worker: a program counter over a shared micro-op table.

    The worker *is* its own resume callback: blocking opcodes store the
    advanced ``pc`` and schedule a bound-method chain whose last link
    calls :meth:`_advance` again.  ``sends`` maps an op's direction index
    to ``(dst rank, path)``, ``rsrcs`` to the source rank of a receive.
    """

    __slots__ = ("eng", "sim", "prog", "pc", "rank", "node", "core", "busy",
                 "sends", "rsrcs", "mpilock", "pending", "on_done", "t0",
                 "res", "q_left", "cres", "my_posted", "my_unexp")

    def __init__(self, eng, prog, rank, core, on_done, sends, rsrcs, res):
        self.eng = eng
        self.sim = eng.sim
        self.prog = prog
        self.pc = 0
        self.rank = rank
        self.node = eng.rank_node[rank]
        self.core = core
        self.busy = None  # this node's per-core busy array, touched lazily
        self.sends = sends
        self.rsrcs = rsrcs
        self.mpilock = eng._mpilock(rank) if eng.pays_lock else None
        self.pending: dict = {}
        self.on_done = on_done
        self.t0 = 0.0
        self.res = res
        self.q_left = 0
        self.cres = (
            f"node{self.node}.core{core}" if eng.trace_buf is not None else None
        )
        # this rank's match queues, pre-bound (shared with the engine dicts)
        self.my_posted = eng.posted.setdefault(rank, [])
        self.my_unexp = eng.unexpected.setdefault(rank, [])

    # -- the dispatch loop -------------------------------------------------
    def _advance(self) -> None:
        prog = self.prog
        n = len(prog)
        pc = self.pc
        eng = self.eng
        sim = self.sim
        while pc < n:
            op = prog[pc]
            code = op[0]
            pc += 1
            if code == OP_COMPUTE:
                self.pc = pc
                if self.busy is None:
                    self.busy = eng._node(self.node)
                sim.call_soon(self._c1, op[1])
                return
            if code == OP_SEND:
                self.pc = pc
                # inlined _overhead: shave two frames off the hottest path
                if self.mpilock is None:
                    sim.call_soon(self._send_f, op[1], op[2], op[3])
                else:
                    self.mpilock.acquire(
                        self._lk_got, self._send_go, (op[1], op[2], op[3])
                    )
                return
            if code == OP_RECV:
                self.pc = pc
                if self.mpilock is None:
                    sim.call_soon(self._recv_f, op[1], op[2], op[3])
                else:
                    self.mpilock.acquire(
                        self._lk_got, self._recv_go, (op[1], op[2], op[3])
                    )
                return
            if code == OP_WAITALL:
                recs = self.pending.pop(op[1], None)
                if recs:
                    self.pc = pc
                    g = _WaitGroup(sim, self, len(recs))
                    on_child = g._on_child
                    for rec in recs:
                        if rec.done:
                            sim.call_soon(on_child)
                        else:
                            rec.group = g
                    return
                continue
            if code == OP_T0:
                self.t0 = sim.now
                continue
            if code == OP_STEP:
                eng.step_buf.append(
                    (self.res[op[2]], op[1], op[2], self.t0, sim.now)
                )
                continue
            if code == OP_TIMEOUT:
                self.pc = pc
                self._sleep(op[1], self._advance)
                return
            if code == OP_QUARTER:
                self.pc = pc
                threads = op[1]
                secs = op[2]
                self.q_left = threads
                for t in range(threads):
                    sim.call_soon(self._q_spawn, t, secs)
                return
            if code == OP_FAULT_CLOCK:
                fp = eng.fault_plan
                if fp.should_kill(self.rank, fp.next_op(self.rank)):
                    self.pc = pc
                    self._sleep(fp.restart_time, self._advance)
                    return
                continue
            # OP_FAULT_SEND
            self.pc = pc
            fp = eng.fault_plan
            if fp.should_kill(self.rank, fp.next_op(self.rank)):
                self._sleep(fp.restart_time, self._fs_kind, op[1], op[2], op[3])
            else:
                self._fs_kind(op[1], op[2], op[3])
            return
        self.pc = pc
        if self.on_done is not None:
            self.on_done()

    # -- generic chains ----------------------------------------------------
    def _fire_then(self, cont, *args) -> None:
        self.sim.call_soon(cont, *args)

    def _sleep(self, delay, cont, *args) -> None:
        """A timed delay: 2 queue entries, then ``cont(*args)``."""
        sim = self.sim
        sim.call_at(sim.now + delay, self._fire_then, cont, *args)

    def _overhead(self, cont, *args) -> None:
        """The per-call cost of entering the MPI library."""
        if self.mpilock is None:
            # SINGLE: a zero-delay sleep (2 entries)
            self._sleep(0.0, cont, *args)
        else:
            # MULTIPLE: serialize on the rank's lock for the call overhead
            self.mpilock.acquire(self._lk_got, cont, args)

    def _lk_got(self, cont, args) -> None:
        sim = self.sim
        sim.call_at(sim.now + self.eng.ovh, self._lk_fire, cont, args)

    def _lk_fire(self, cont, args) -> None:
        self.sim.call_soon(self._lk_done, cont, args)

    def _lk_done(self, cont, args) -> None:
        self.mpilock.release()
        cont(*args)

    # -- compute -----------------------------------------------------------
    def _c1(self, secs) -> None:
        sim = self.sim
        sim.call_at(sim.now + secs, self._c2, secs, sim.now)

    def _c2(self, secs, start) -> None:
        self.sim.call_soon(self._c3, secs, start)

    def _c3(self, secs, start) -> None:
        self.busy[self.core] += secs
        buf = self.eng.trace_buf
        if buf is not None:
            buf.append((start, self.sim.now, self.cres, "compute"))
        self._advance()

    # -- point-to-point ----------------------------------------------------
    def _send_f(self, d, nbytes, tag) -> None:
        # the zero-delay overhead's fire entry
        self.sim.call_soon(self._send_go, d, nbytes, tag)

    def _recv_f(self, d, tag, seq) -> None:
        self.sim.call_soon(self._recv_go, d, tag, seq)

    def _send_go(self, d, nbytes, tag) -> None:
        dst_rank, path = self.sends[d]
        tr = _Transfer(self.eng, path, self.rank, dst_rank, nbytes, tag)
        self.sim.call_soon(tr._start)
        self._advance()

    def _spawn_transfer(self, d, nbytes, tag) -> None:
        dst_rank, path = self.sends[d]
        tr = _Transfer(self.eng, path, self.rank, dst_rank, nbytes, tag)
        self.sim.call_soon(tr._start)

    def _recv_go(self, d, tag, seq) -> None:
        src = self.rsrcs[d]
        rec = _Recv()
        queue = self.my_unexp
        matched = False
        if queue:
            for i, ent in enumerate(queue):
                if ent[0] == src and ent[1] == tag:
                    del queue[i]
                    rec.done = True
                    matched = True
                    break
        if not matched:
            self.my_posted.append((src, tag, rec))
        pend = self.pending
        lst = pend.get(seq)
        if lst is None:
            pend[seq] = [rec]
        else:
            lst.append(rec)
        self._advance()

    # -- master-only quarter compute ---------------------------------------
    def _q_spawn(self, t, secs) -> None:
        if self.busy is None:
            self.busy = self.eng._node(self.node)
        self.sim.call_soon(self._q_c1, t, secs)

    def _q_c1(self, t, secs) -> None:
        sim = self.sim
        sim.call_at(sim.now + secs, self._q_c2, t, secs, sim.now)

    def _q_c2(self, t, secs, start) -> None:
        self.sim.call_soon(self._q_c3, t, secs, start)

    def _q_c3(self, t, secs, start) -> None:
        self.busy[t] += secs
        buf = self.eng.trace_buf
        if buf is not None:
            buf.append(
                (start, self.sim.now, f"node{self.node}.core{t}", "compute")
            )
        self.sim.call_soon(self._q_child)

    def _q_child(self) -> None:
        self.q_left -= 1
        if self.q_left == 0:
            self.sim.call_soon(self._advance)

    # -- fault replay ------------------------------------------------------
    def _fs_kind(self, d, nbytes, tag) -> None:
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
        fp = self.eng.fault_plan
        kind = fp.take_fault(self.rank, fp.next_send(self.rank), "isend")
        if kind == "delay":
            self._sleep(fp.delay, self._fs_real, d, nbytes, tag)
        elif kind == "drop":
            self._sleep(fp.retransmit_timeout, self._fs_real, d, nbytes, tag)
        elif kind == "corrupt":
            self._overhead(self._fs_ghost_then_wait, d, nbytes, tag)
        elif kind == "duplicate":
            self._overhead(self._fs_ghost_then_real, d, nbytes, tag)
        else:
            self._fs_real(d, nbytes, tag)

    def _fs_ghost_then_wait(self, d, nbytes, tag) -> None:
        self._spawn_transfer(d, nbytes, tag + _GHOST_TAG_OFFSET)
        self._sleep(
            self.eng.fault_plan.retransmit_timeout, self._fs_real, d, nbytes, tag
        )

    def _fs_ghost_then_real(self, d, nbytes, tag) -> None:
        self._spawn_transfer(d, nbytes, tag + _GHOST_TAG_OFFSET)
        self._fs_real(d, nbytes, tag)

    def _fs_real(self, d, nbytes, tag) -> None:
        self._overhead(self._send_go, d, nbytes, tag)


class _TeamRunner:
    """Hybrid node program: thread-team spawn, worker fan-out, join."""

    __slots__ = ("sim", "workers", "left", "spawn_time", "join_time")

    def __init__(self, sim, spawn_time, join_time) -> None:
        self.sim = sim
        self.workers: list = []
        self.left = 0
        self.spawn_time = spawn_time
        self.join_time = join_time

    def _start(self) -> None:
        sim = self.sim
        sim.call_at(sim.now + self.spawn_time, self._s_fire)

    def _s_fire(self) -> None:
        self.sim.call_soon(self._go)

    def _go(self) -> None:
        ws = self.workers
        if ws:
            self.left = len(ws)
            sim = self.sim
            for w in ws:
                sim.call_soon(w._advance)
        else:
            self._joined()

    def _worker_done(self) -> None:
        # a worker's end wakes the team's join
        self.sim.call_soon(self._team_child)

    def _team_child(self) -> None:
        self.left -= 1
        if self.left == 0:
            self.sim.call_soon(self._joined)

    def _joined(self) -> None:
        sim = self.sim
        sim.call_at(sim.now + self.join_time, self._j_fire)

    def _j_fire(self) -> None:
        self.sim.call_soon(self._j_done)

    def _j_done(self) -> None:
        pass


class _Replay:
    """The shared state of one replay on one :class:`Machine`.

    Node busy arrays, torus links, per-rank MPI locks, match queues and
    the byte/message counters, all created lazily; every replay lowers
    its workers (:meth:`_lower`), starts them on one of these and calls
    :meth:`run`.
    """

    def __init__(
        self,
        machine: Machine,
        pays_lock: bool = False,
        trace: bool = False,
        step_tracer: Optional[SpanTracer] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        spec = machine.spec
        part = machine.partition
        self.machine = machine
        self.sim = machine.sim
        self.topology = machine.topology
        self.torus_spec = spec.torus
        self.msg_overhead = spec.torus.message_overhead
        self.pays_lock = pays_lock
        self.ovh = spec.threads.mpi_multiple_overhead
        self.n_node_cores = spec.node.n_cores
        self.threads = spec.threads
        self.gemm_rate = spec.node.core.peak_flops * WholeAppModel.GEMM_EFFICIENCY
        #: the micro-op row of one ComputeInterior (stencil plans set it)
        self.interior_op: Optional[tuple] = None
        #: plan owner (domain, band group) -> the rank it is placed on
        self.rank_of_owner: list[int] = []
        self.fault_plan = fault_plan
        # rank -> node / first-core tables (partition properties are too
        # slow to chase once per peer per rank)
        cpr = part.mode.cores_per_rank
        self.rank_node = [part.node_of_rank(r) for r in range(part.n_ranks)]
        self.rank_core = [
            part.core_slot_of_rank(r) * cpr for r in range(part.n_ranks)
        ]
        self.nodes: dict = {}
        self.links: dict = {}
        self.mpilocks: dict = {}
        self.paths: dict = {}
        self.posted: dict = {}
        self.unexpected: dict = {}
        self.torus_bytes: dict = {}
        self.messages_sent = 0
        self.total = 0.0
        self.tracer = SpanTracer(plane="sim") if trace else None
        self.step_tracer = step_tracer
        self.trace_buf = [] if trace else None
        self.step_buf = [] if step_tracer is not None else None

    def run(self) -> float:
        """Drain the simulator, flush the trace buffers; the makespan."""
        self.total = total = self.sim.run()
        if self.trace_buf is not None:
            record = self.tracer.record
            for start, end, resource, label in self.trace_buf:
                record(resource, start, end, label)
        if self.step_buf is not None:
            self.step_tracer.extend_steps(self.step_buf)
        return total

    def utilization(self) -> float:
        """Mean core-busy fraction over the nodes the replay touched."""
        total = self.total
        if total <= 0 or not self.nodes:
            return 0.0
        nc = self.n_node_cores
        return sum(
            sum(b) / (nc * total) for b in self.nodes.values()
        ) / len(self.nodes)

    def _node(self, node_id: int) -> list:
        """This node's per-core busy array (node joins the run on first use)."""
        b = self.nodes.get(node_id)
        if b is None:
            b = self.nodes[node_id] = [0.0] * self.n_node_cores
        return b

    def _mpilock(self, rank: int) -> _CbLock:
        lk = self.mpilocks.get(rank)
        if lk is None:
            lk = self.mpilocks[rank] = _CbLock(self.sim)
        return lk

    def _link(self, key) -> _CbLock:
        lk = self.links.get(key)
        if lk is None:
            lk = self.links[key] = _CbLock(self.sim)
        return lk

    def _path(self, src_node: int, dst_node: int) -> _Path:
        key = (src_node, dst_node)
        p = self.paths.get(key)
        if p is None:
            if src_node == dst_node:
                p = _Path(True, src_node, None, None, "", 0)
            else:
                route = self.topology.route(src_node, dst_node)
                links = [self._link(hop) for hop in sorted(route)]
                names = None
                if self.trace_buf is not None:
                    names = [
                        f"link{n}.{'+' if s > 0 else '-'}{'xyz'[d]}"
                        for n, d, s in route
                    ]
                p = _Path(
                    False, src_node, links, names,
                    f"{src_node}->{dst_node}", len(route),
                )
            self.paths[key] = p
        return p

    def _send_table(self, rank: int, dsts) -> list:
        """A worker's ``sends`` table: ``(dst rank, path)`` per destination."""
        rank_node = self.rank_node
        src_node = rank_node[rank]
        return [(dst, self._path(src_node, rank_node[dst])) for dst in dsts]

    def _peers(self, send_dirs, recv_dirs, rank: int, slot: int):
        """One worker's ``(sends, rsrcs)`` tables from its owner's
        direction lists (peers placed by :attr:`rank_of_owner`)."""
        ro = self.rank_of_owner
        return (
            self._send_table(
                rank, [ro[peer] + slot for _d, _s, peer, _nb in send_dirs]
            ),
            [ro[peer] + slot for _d, _s, peer, _nb in recv_dirs],
        )

    def _lower(self, steps, worker: int, send_dirs, recv_dirs, rounds,
               lookahead: int) -> list:
        """Lower one worker's step list to micro-op rows.

        Exchange steps find their peer-table slot by ``(dim, step)`` in
        the owner's direction lists.  ``rounds`` (the worker's
        ``(seq, grids)`` exchange rounds, empty when the plan pays no
        separate call CPU) charges the per-round CPU cost of entering the
        MPI library (sends + recvs + one waitall per round) when a
        round's calls are issued, which is ``lookahead`` rounds ahead of
        the ``WaitAll`` being replayed.  With step tracing, every step
        lands as a span on the worker's resource.
        """
        send_index = {(d, s): i for i, (d, s, _p, _nb) in enumerate(send_dirs)}
        recv_index = {(d, s): i for i, (d, s, _p, _nb) in enumerate(recv_dirs)}
        fp = self.fault_plan
        with_steps = self.step_buf is not None
        prog: list = []
        t_call = self.threads.mpi_call_cpu_time
        round_call_cpu = (len(send_index) + len(recv_index) + 1) * t_call
        next_round = 0
        for st in steps:
            if with_steps:
                prog.append((OP_T0,))
            if rounds and isinstance(st, (PostSend, PostRecv, WaitAll)):
                limit = st.seq + (lookahead if isinstance(st, WaitAll) else 0)
                while next_round < len(rounds) and rounds[next_round][0] <= limit:
                    next_round += 1
                    prog.append((OP_COMPUTE, round_call_cpu))
            if isinstance(st, PostSend):
                d = send_index[(st.dim, st.step)]
                if fp is not None:
                    prog.append((OP_FAULT_SEND, d, st.nbytes, st.tag))
                else:
                    prog.append((OP_SEND, d, st.nbytes, st.tag))
            elif isinstance(st, PostRecv):
                if fp is not None:
                    prog.append((OP_FAULT_CLOCK,))
                prog.append((OP_RECV, recv_index[(st.dim, st.step)], st.tag, st.seq))
            elif isinstance(st, WaitAll):
                if fp is not None:
                    prog.append((OP_FAULT_CLOCK,))
                prog.append((OP_WAITALL, st.seq))
            elif isinstance(st, ComputeInterior):
                prog.append(self.interior_op)
            elif isinstance(st, PartialGemm):
                prog.append((OP_COMPUTE, st.flops / self.gemm_rate))
            elif isinstance(st, GridBarrier):
                prog.append((OP_TIMEOUT, self.threads.barrier_time))
            # ApplyLocalWraps / ComputeBoundary: in-block memcpys and
            # zeroing, free at this fidelity (their cost is inside the
            # calibrated per-point compute time); JoinBarrier: the team
            # runner pays the join cost once
            if with_steps:
                prog.append((OP_STEP, st, worker))
        return prog

    def _deliver(self, dst: int, src: int, tag: int) -> None:
        """Payload arrived: complete the matching posted receive or queue it."""
        posted = self.posted.get(dst)
        if posted:
            for i, ent in enumerate(posted):
                if ent[0] == src and ent[1] == tag:
                    del posted[i]
                    rec = ent[2]
                    rec.done = True
                    g = rec.group
                    if g is not None:
                        self.sim.call_soon(g._on_child)
                    return
        self.unexpected.setdefault(dst, []).append((src, tag))


# -- FD schedule plans --------------------------------------------------------
class _SigUnit:
    """Everything lowered once per plan signature, shared by its ranks."""

    __slots__ = ("n_workers", "n_steps", "workers", "seq_prog")

    def __init__(self) -> None:
        self.n_workers = 0
        self.n_steps = 0
        #: [(worker index, slot, program)] for team/sub-group runners
        self.workers: Optional[list] = None
        #: the rank's workers concatenated, for the sequential runner
        self.seq_prog: Optional[list] = None


class _FDSimulation(_Replay):
    """One simulated FD invocation: set-up, lowering and orchestration."""

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
        self.approach = approach
        self.n_cores = n_cores
        self.batch_size = batch_size
        mode, n_nodes = _node_mode_for(approach, n_cores)
        super().__init__(
            Machine(n_nodes, mode, spec),
            pays_lock=approach.thread_mode.pays_lock_overhead,
            trace=trace,
            step_tracer=step_tracer,
            fault_plan=fault_plan,
        )
        # The schedule is not built here: compile (or fetch from cache)
        # the same plan the analytic model prices and replay it.
        self.plan = timing_plan(
            approach, job.grid, job.n_grids, n_cores, batch_size, ramp_up
        )
        self.decomp = self.plan.decomp
        self.rank_of_owner = _domain_to_rank(self.decomp, self.machine, placement)
        # per-point compute cost: the analytic model's small-block halo
        # penalty; master-only's shared-grid kernel splits one grid over
        # four cores, each at the per-thread quarter block's cost
        block_points = self.decomp.max_block_points()
        model = PerformanceModel(spec)
        if self.plan.sync_per_grid:
            threads = min(4, n_cores)
            self.interior_op = (
                OP_QUARTER,
                threads,
                math.ceil(block_points / threads)
                * model._point_time(self.decomp, threads),
            )
        else:
            self.interior_op = (
                OP_COMPUTE, block_points * model._point_time(self.decomp)
            )

    def run(self) -> SimResult:
        sim = self.sim
        plan = self.plan
        rod = self.rank_of_owner
        spawn_time = self.threads.spawn_time
        join_time = self.threads.join_time
        with_steps = self.step_buf is not None
        units: dict = {}
        ir_steps = 0
        for domain in range(self.decomp.n_domains):
            send_dirs, recv_dirs = plan.directions(domain)
            sig = (
                tuple((d, s, nb) for d, s, _p, nb in send_dirs),
                tuple((d, s, nb) for d, s, _p, nb in recv_dirs),
            )
            unit = units.get(sig)
            if unit is None:
                unit = self._compile_unit(domain)
                units[sig] = unit
            ir_steps += unit.n_steps
            base = rod[domain]
            res = (
                [f"rank{domain}.w{i}" for i in range(unit.n_workers)]
                if with_steps
                else None
            )
            if plan.workers_are_ranks:
                # flat sub-groups (section VII-A): the node's virtual-mode
                # ranks each replay their own worker, offset by slot
                for _windex, slot, prog in unit.workers:
                    rank = base + slot
                    sends, rsrcs = self._peers(send_dirs, recv_dirs, rank, slot)
                    w = _Worker(
                        self, prog, rank,
                        self.rank_core[rank],
                        None, sends, rsrcs, res,
                    )
                    sim.call_soon(w._advance)
            elif plan.uses_thread_team:
                sends, rsrcs = self._peers(send_dirs, recv_dirs, base, 0)
                runner = _TeamRunner(sim, spawn_time, join_time)
                runner.workers = [
                    _Worker(
                        self, prog, base, windex,
                        runner._worker_done, sends, rsrcs, res,
                    )
                    for windex, _slot, prog in unit.workers
                ]
                sim.call_soon(runner._start)
            else:
                # sequential rank program: all workers in one chain
                sends, rsrcs = self._peers(send_dirs, recv_dirs, base, 0)
                w = _Worker(
                    self, unit.seq_prog, base,
                    self.rank_core[base],
                    None, sends, rsrcs, res,
                )
                sim.call_soon(w._advance)

        total = super().run()
        return SimResult(
            approach_name=self.approach.name,
            n_cores=self.n_cores,
            batch_size=self.batch_size,
            total=total,
            utilization=self.utilization(),
            comm_bytes_per_node=sum(self.torus_bytes.values())
            / self.machine.n_nodes,
            messages=self.messages_sent,
            trace=self.tracer,
            step_trace=self.step_tracer,
            fault_events=(
                len(self.fault_plan.events) if self.fault_plan is not None else 0
            ),
            ir_steps=ir_steps,
            events=sim.events_processed,
        )

    def _compile_unit(self, domain: int) -> _SigUnit:
        """Lower one representative rank plan to shared micro-op programs.

        Blocking plans pay no separate call CPU (the fixed cost sits
        inside the network model's per-message overhead).  Step spans
        land on resource ``rank{domain}.w{worker}``, the real engine's
        naming (:func:`repro.obs.spans.engine_hook`).
        """
        plan = self.plan
        rp = plan.rank_plan(domain)
        send_dirs, recv_dirs = plan.directions(domain)
        charged = self.threads.mpi_call_cpu_time and not plan.blocking
        lookahead = 1 if plan.double_buffered else 0
        unit = _SigUnit()
        unit.n_workers = len(rp.workers)
        unit.n_steps = sum(len(wp.steps) for wp in rp.workers)
        progs = [
            self._lower(
                wp.steps, wp.index, send_dirs, recv_dirs,
                plan.worker_rounds(wp.index) if charged else (), lookahead,
            )
            for wp in rp.workers
        ]
        if plan.workers_are_ranks or plan.uses_thread_team:
            # only workers with steps are started
            unit.workers = [
                (wp.index, wp.slot, prog)
                for wp, prog in zip(rp.workers, progs)
                if wp.steps
            ]
        else:
            seq: list = []
            for prog in progs:
                seq.extend(prog)
            unit.seq_prog = seq
        return unit


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
) -> SimResult:
    """Simulate one FD invocation at message level on the DES machine.

    Message-level exact; ranks sharing a plan shape share one lowered
    program, which keeps exact replay feasible at paper-scale rank
    counts.

    ``fault_plan`` replays the same :class:`~repro.transport.faults.FaultPlan`
    the functional plane injects, as *timing* perturbations: delays,
    retransmit windows, spurious wire copies, and restart penalties for
    killed ranks.  A kill does not end the rank's replay: it stalls for
    ``restart_time`` simulated seconds — the cost of relaunching from
    the last checkpoint — and then resumes its program, so it and,
    through stalled messages, its neighbours lose that time.  The
    functional plane's :class:`~repro.dft.recovery.RecoveryController`
    is what really replans and resumes.  The plan's counters
    advance during the replay — pass ``plan.replica()`` to keep the
    original pristine.

    ``step_tracer`` (a :class:`~repro.obs.spans.SpanTracer`, typically
    ``SpanTracer(plane="sim")``) records every replayed schedule-IR step
    as a unified span at simulated time; the result's ``step_trace``
    carries it for export/diffing against the other planes.
    """
    return _FDSimulation(
        job, approach, n_cores, batch_size, ramp_up, spec, placement, trace,
        fault_plan, step_tracer,
    ).run()


def simulate_spec(
    jobspec,
    spec: MachineSpec = BGP_SPEC,
    fault_plan: Optional[FaultPlan] = None,
    step_tracer: Optional[SpanTracer] = None,
) -> SimResult:
    """Replay one FD invocation of a :class:`~repro.core.jobspec.JobSpec`.

    For ``n_band_groups > 1`` the replayed invocation is one band
    group's (``G/nb`` grids on ``P/nb`` cores — groups run concurrently,
    so that *is* the step's FD wall time); the ring pass is priced
    separately via :func:`simulate_band_plan`, which is how
    :meth:`~repro.core.planner.Planner.cross_check` combines the two.

    The placement is the spec's own serialized ``runtime.placement``.
    """
    if step_tracer is not None and getattr(step_tracer, "config_hash", None) is None:
        step_tracer.config_hash = jobspec.config_hash()
    return simulate_fd(
        jobspec.group_job(),
        jobspec.approach_obj(),
        jobspec.group_cores,
        batch_size=jobspec.layout.batch_size,
        ramp_up=jobspec.layout.ramp_up,
        spec=spec,
        placement=jobspec.runtime.placement,
        fault_plan=fault_plan,
        step_tracer=step_tracer,
    )


# -- band-ring plans ----------------------------------------------------------
@dataclass
class BandSimResult:
    """Outcome of one simulated band-orthogonalization (ring) pass."""

    n_groups: int
    total: float
    messages: int
    step_trace: Optional[SpanTracer] = None


def simulate_band_plan(
    plan: BandSchedulePlan,
    spec: MachineSpec = BGP_SPEC,
    step_tracer: Optional[SpanTracer] = None,
) -> BandSimResult:
    """Replay one compiled :class:`BandSchedulePlan` on the DES machine.

    The ring only talks *between* groups — every rank exchanges with the
    same-domain peer of the neighbouring group and all domains of a group
    progress in lockstep — so one representative rank per group (domain
    0) reproduces the critical path: ``nb`` SMP nodes, one per group,
    each running its group's step list through the same lowering as an
    FD plan.  This is the same step sequence the functional executor
    interprets and the analytic model walks.  Step spans land on
    resource ``bg{group}.rank0.w0``.
    """
    nb = plan.n_owners
    eng = _Replay(Machine(nb, NodeMode.SMP, spec), step_tracer=step_tracer)
    eng.rank_of_owner = list(range(nb))
    for group in range(nb):
        send_dirs, recv_dirs = plan.directions(group)
        sends, rsrcs = eng._peers(send_dirs, recv_dirs, group, 0)
        # no per-round call CPU: the ring costs its links and GEMMs only
        prog = eng._lower(plan.group_steps(group), 0, send_dirs, recv_dirs, (), 0)
        w = _Worker(
            eng, prog, group, eng.rank_core[group], None, sends, rsrcs,
            [f"bg{group}.rank0.w0"],
        )
        eng.sim.call_soon(w._advance)
    total = eng.run()
    return BandSimResult(
        n_groups=nb,
        total=total,
        messages=eng.messages_sent,
        step_trace=step_tracer,
    )


# -- point-to-point message sets ----------------------------------------------
def _replay_messages(machine: Machine, messages) -> _Replay:
    """Replay point-to-point messages ``(src, dst, tag, nbytes)`` between ranks.

    Each rank posts its sends in list order, then its receives (matched
    by ``(src, tag)``, FIFO among equals), then waits for all of them;
    calls pay the ``SINGLE``-mode overhead.  Returns the drained replay:
    ``total``, ``messages_sent``, ``torus_bytes`` and the match queues
    (``posted``/``unexpected``, empty when every message met its
    receive) are there to inspect.
    """
    eng = _Replay(machine)
    progs: dict = {}
    for src, dst, tag, nbytes in messages:
        prog, dsts, _srcs = progs.setdefault(src, ([], [], []))
        prog.append((OP_SEND, len(dsts), nbytes, tag))
        dsts.append(dst)
    for src, dst, tag, _nbytes in messages:
        prog, _dsts, srcs = progs.setdefault(dst, ([], [], []))
        prog.append((OP_RECV, len(srcs), tag, 0))
        srcs.append(src)
    for rank, (prog, dsts, srcs) in progs.items():
        prog.append((OP_WAITALL, 0))
        w = _Worker(
            eng, prog, rank, eng.rank_core[rank], None,
            eng._send_table(rank, dsts), srcs, None,
        )
        eng.sim.call_soon(w._advance)
    eng.run()
    return eng
