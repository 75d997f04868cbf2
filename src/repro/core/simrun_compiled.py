"""Compiled, table-driven replay of schedule plans: the paper-scale engine.

:mod:`repro.core.simrun` replays a compiled
:class:`~repro.core.schedule.SchedulePlan` with one Python generator
process per rank interpreting step objects — exact, but every simulated
rank pays generator frames, :class:`~repro.des.core.Event` allocation and
``isinstance`` dispatch per step, and every rank *materializes its own
step list* even though almost all interior ranks share one plan shape.
That caps the exact plane at a few hundred ranks.

This module is a drop-in second engine for the same replay:

* **Plan deduplication** — ranks are grouped by their *direction
  signature* (``(dim, step, nbytes)`` of each remote send/recv — exactly
  the inputs :meth:`SchedulePlan._build_rank_plan` derives a step list
  from, besides peer ids).  One representative rank plan is materialized
  and compiled per signature; on a regular domain grid that is a handful
  of programs for thousands of ranks.
* **Micro-op programs** — each worker's step list is lowered once into a
  flat tuple of ``(op, duration, peer, tag)`` rows.  All per-step
  branching (blocking vs pipelined, lookahead call-CPU charging, thread
  mode, fault instrumentation, step tracing) happens at compile time;
  replay is a tight opcode loop.
* **Callback chains instead of processes** — blocking ops schedule bound
  methods on the simulator's callback fast path
  (:meth:`~repro.des.core.Simulator.call_at` /
  :meth:`~repro.des.core.Simulator.call_soon`); no Event, Process,
  Timeout or Resource objects exist at replay time.

Bit-exactness contract
----------------------

The compiled engine is **hop-parity exact**: for every queue entry the
reference engine schedules — on the simulator's heap or on its
same-timestamp ready queue — this engine schedules exactly one entry at
the same simulated time, in the same scheduling order.  Because the DES
fires simultaneous entries in scheduling order, the whole replay —
event count, message order under link/lock contention, FIFO handoffs,
every timestamp, the activity trace and the step trace — reproduces the
reference engine bit for bit.  ``tests/test_engine_equivalence.py``
asserts exactly that, including under a seeded
:class:`~repro.transport.faults.FaultPlan`; the reference engine stays
canonical and this engine must match it, never the other way around.

The per-primitive hop ledger (reference ⟷ compiled):

===========================  ==============================================
reference primitive          queue entries (both engines)
===========================  ==============================================
process spawn                1 (``call_soon`` resume)
``timeout(d)``               2 (``call_at`` fire, ``call_soon`` resume)
free ``Resource.acquire``    1 (resume); busy: 0 now, 1 at FIFO handoff
``Resource.release``         0, or 1 when a waiter takes the slot
``ctx.compute(s)``           3 (acquire resume, fire, resume)
MPI call overhead (SINGLE)   2 (a zero-delay timeout)
MPI call overhead (MULT.)    lock acquire + 2 + release handoff
``isend``                    overhead + 1 (transfer-process spawn)
torus transfer               per-link acquires + 2 + releases + delivery
``waitall``                  1 per completed request + 1 resume
===========================  ==============================================
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.core.schedule import (
    ComputeInterior,
    GridBarrier,
    PostRecv,
    PostSend,
    WaitAll,
    WorkerPlan,
    message_tag,
)
from repro.core.simrun import _GHOST_TAG_OFFSET, SimResult, _FDSimulation

__all__ = ["simulate_fd_compiled"]

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


class _CbLock:
    """Capacity-1 FIFO lock on the callback fast path.

    Hop-parity twin of a free/contended :class:`~repro.des.Resource`:
    a free acquire schedules the continuation (1 entry, like the
    triggered acquire event's callback), a contended one queues silently,
    and a release hands the slot to the oldest waiter (1 entry) or frees
    the lock (0 entries).
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
    """AllOf twin: counts deliveries, resumes the worker on the last one."""

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
    """One in-flight message: the transfer process, as a callback chain."""

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
        # the spawned process's first hop: lazily touch the source node
        # (it joins the utilization denominator), then claim the route
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
    calls :meth:`_advance` again.
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
        """``timeout(delay)`` twin: 2 hops, then ``cont(*args)``."""
        sim = self.sim
        sim.call_at(sim.now + delay, self._fire_then, cont, *args)

    def _overhead(self, cont, *args) -> None:
        """The per-call cost of entering the MPI library."""
        if self.mpilock is None:
            # SINGLE: a zero-delay timeout (2 hops)
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
        # the zero-delay overhead timeout's fire hop
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
        # worker process end: its completion event wakes the team AllOf
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


class _SigUnit:
    """Everything compiled once per plan signature, shared by its ranks."""

    __slots__ = ("n_workers", "n_steps", "workers", "seq_prog")

    def __init__(self) -> None:
        self.n_workers = 0
        self.n_steps = 0
        #: [(worker index, slot, program)] for team/sub-group runners
        self.workers: Optional[list] = None
        #: the rank's workers concatenated, for the sequential runner
        self.seq_prog: Optional[list] = None


class _CompiledFDSimulation(_FDSimulation):
    """The table-driven engine; setup is shared with the reference engine."""

    def run(self) -> SimResult:
        sim = self.machine.sim
        self.sim = sim
        part = self.machine.partition
        self.part = part
        self.topology = self.machine.topology
        self.torus_spec = self.spec.torus
        self.msg_overhead = self.spec.torus.message_overhead
        self.pays_lock = self.comm.thread_mode.pays_lock_overhead
        self.ovh = self.spec.threads.mpi_multiple_overhead
        self.n_node_cores = self.spec.node.n_cores
        # rank -> node / first-core tables (partition properties are too
        # slow to chase once per peer per rank)
        cpr = part.mode.cores_per_rank
        self.rank_node = [part.node_of_rank(r) for r in range(part.n_ranks)]
        self.rank_core = [
            part.core_slot_of_rank(r) * cpr for r in range(part.n_ranks)
        ]
        # replay state (twin of Machine/TorusNetwork/SimComm internals)
        self.nodes: dict = {}
        self.links: dict = {}
        self.mpilocks: dict = {}
        self.paths: dict = {}
        self.posted: dict = {}
        self.unexpected: dict = {}
        self.torus_bytes: dict = {}
        self.messages_sent = 0
        self.trace_buf = [] if self.tracer is not None else None
        self.step_buf = [] if self.step_tracer is not None else None

        plan = self.plan
        rod = self.rank_of_domain
        spawn_time = self.spec.threads.spawn_time
        join_time = self.spec.threads.join_time
        with_steps = self.step_buf is not None
        units: dict = {}
        ir_steps = 0
        for domain in range(self.decomp.n_domains):
            send_dirs, recv_dirs = plan._directions(domain)
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
                # flat sub-groups: each node-slot rank runs its own worker
                for _windex, slot, prog in unit.workers:
                    rank = base + slot
                    sends, rsrcs = self._dirs_for(send_dirs, recv_dirs, rank, slot)
                    w = _Worker(
                        self, prog, rank,
                        self.rank_core[rank],
                        None, sends, rsrcs, res,
                    )
                    sim.call_soon(w._advance)
            elif plan.uses_thread_team:
                sends, rsrcs = self._dirs_for(send_dirs, recv_dirs, base, 0)
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
                sends, rsrcs = self._dirs_for(send_dirs, recv_dirs, base, 0)
                w = _Worker(
                    self, unit.seq_prog, base,
                    self.rank_core[base],
                    None, sends, rsrcs, res,
                )
                sim.call_soon(w._advance)

        total = sim.run()
        if total <= 0 or not self.nodes:
            utilization = 0.0
        else:
            nc = self.n_node_cores
            utilization = sum(
                sum(b) / (nc * total) for b in self.nodes.values()
            ) / len(self.nodes)
        if self.trace_buf is not None:
            record = self.tracer.record
            for start, end, resource, label in self.trace_buf:
                record(resource, start, end, label)
        if self.step_buf is not None:
            self.step_tracer.extend_steps(self.step_buf)
        return SimResult(
            approach_name=self.approach.name,
            n_cores=self.n_cores,
            batch_size=self.batch_size,
            total=total,
            utilization=utilization,
            comm_bytes_per_node=sum(self.torus_bytes.values())
            / self.machine.n_nodes,
            messages=self.messages_sent,
            trace=self.tracer,
            step_trace=self.step_tracer,
            fault_events=(
                len(self.fault_plan.events) if self.fault_plan is not None else 0
            ),
            engine="compiled",
            ir_steps=ir_steps,
            events=sim.events_processed,
        )

    # -- shared replay state -----------------------------------------------
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

    def _dirs_for(self, send_dirs, recv_dirs, rank, slot):
        """Instantiate one rank's peer tables from its direction lists."""
        rod = self.rank_of_domain
        rank_node = self.rank_node
        src_node = rank_node[rank]
        sends = []
        for _d, _s, peer, _nb in send_dirs:
            dst_rank = rod[peer] + slot
            sends.append(
                (dst_rank, self._path(src_node, rank_node[dst_rank]))
            )
        rsrcs = [rod[peer] + slot for _d, _s, peer, _nb in recv_dirs]
        return sends, rsrcs

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

    # -- compilation ---------------------------------------------------------
    def _compile_unit(self, domain: int) -> _SigUnit:
        """Lower one representative rank plan to shared micro-op programs."""
        plan = self.plan
        rp = plan.rank_plan(domain)
        send_dirs, recv_dirs = plan._directions(domain)
        send_index = {(d, s): i for i, (d, s, _p, _nb) in enumerate(send_dirs)}
        recv_index = {(d, s): i for i, (d, s, _p, _nb) in enumerate(recv_dirs)}
        unit = _SigUnit()
        unit.n_workers = len(rp.workers)
        unit.n_steps = sum(len(wp.steps) for wp in rp.workers)
        progs = [
            self._compile_worker(wp, send_index, recv_index)
            for wp in rp.workers
        ]
        if plan.workers_are_ranks or plan.uses_thread_team:
            # only workers with steps are spawned (matching the reference)
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

    def _compile_worker(self, wp: WorkerPlan, send_index, recv_index) -> list:
        """Lower one worker's step list; mirrors ``replay_worker`` exactly."""
        plan = self.plan
        spec = self.spec
        fp = self.fault_plan
        with_steps = self.step_tracer is not None
        prog: list = []
        t_call = spec.threads.mpi_call_cpu_time
        lookahead = 1 if plan.double_buffered else 0
        rounds = wp.rounds
        next_round = 0
        for st in wp.steps:
            if with_steps:
                prog.append((OP_T0,))
            if (
                not plan.blocking
                and t_call
                and isinstance(st, (PostSend, PostRecv, WaitAll))
            ):
                # charge the per-round CPU cost of issuing the MPI calls
                limit = st.seq + (lookahead if isinstance(st, WaitAll) else 0)
                while next_round < len(rounds) and rounds[next_round].seq <= limit:
                    r = rounds[next_round]
                    next_round += 1
                    prog.append(
                        (OP_COMPUTE, (len(r.sends) + len(r.recvs) + 1) * t_call)
                    )
            if isinstance(st, PostSend):
                tag = message_tag(st.seq, st.dim, st.step)
                d = send_index[(st.dim, st.step)]
                if fp is not None:
                    prog.append((OP_FAULT_SEND, d, st.nbytes, tag))
                else:
                    prog.append((OP_SEND, d, st.nbytes, tag))
            elif isinstance(st, PostRecv):
                if fp is not None:
                    prog.append((OP_FAULT_CLOCK,))
                tag = message_tag(st.seq, st.dim, st.step)
                prog.append((OP_RECV, recv_index[(st.dim, st.step)], tag, st.seq))
            elif isinstance(st, WaitAll):
                if fp is not None:
                    prog.append((OP_FAULT_CLOCK,))
                prog.append((OP_WAITALL, st.seq))
            elif isinstance(st, ComputeInterior):
                if plan.sync_per_grid:
                    threads = min(4, self.n_cores)
                    secs = (
                        math.ceil(self.block_points / threads)
                        * self.t_point_quarter
                    )
                    prog.append((OP_QUARTER, threads, secs))
                else:
                    prog.append((OP_COMPUTE, self.block_points * self.t_point))
            elif isinstance(st, GridBarrier):
                prog.append((OP_TIMEOUT, spec.threads.barrier_time))
            # ApplyLocalWraps / ComputeBoundary / JoinBarrier: no timed action
            if with_steps:
                prog.append((OP_STEP, st, wp.index))
        return prog


def simulate_fd_compiled(*args, **kwargs) -> SimResult:
    """``simulate_fd`` on the compiled engine (same signature/semantics)."""
    return _CompiledFDSimulation(*args, **kwargs).run()
