"""The seven workloads: inputs, one pass, correctness check, layer pricing.

Sizes are fixed here (``SIZES``); ``--quick`` runs the same code paths on
the cut sizes.  Every ``run_pass`` times exactly the pass body and leaves
input generation, gathering and checking outside the timed region.  The
program under test only ever receives the generated inputs.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``; the short version: ``fd_bulk`` is kernel-bound,
``fd_latency`` is hand-off-bound, ``scf_domain`` is Poisson/allreduce-
bound, ``scf_bands`` is ring/checkpoint-bound with no halo traffic,
``des_replay`` is the event loop, ``des_traced`` is capture + attribution,
``plan_rank`` is the models + schedule compiler.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as clock
from types import SimpleNamespace

import adapters as A
from proxies import TimedCheckpointStore, TimedEngine, TimedPoisson, TimedTransport
from tracing import REPORTED_THREAD, name_stats, top_level_total

np = A.np

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())

SIZES = {
    "fd_bulk": {
        "full": dict(n=48, grids=32, approach="flat-optimized", batch=4,
                     sweeps=10, passes=10, serial_passes=5),
        "quick": dict(n=24, grids=8, approach="flat-optimized", batch=4,
                      sweeps=3, passes=3, serial_passes=2),
    },
    "fd_latency": {
        "full": dict(n=12, grids=64, approach="flat-original", batch=1,
                     sweeps=20, passes=10, serial_passes=5),
        "quick": dict(n=12, grids=16, approach="flat-original", batch=1,
                      sweeps=4, passes=3, serial_passes=2),
    },
    "scf_domain": {
        "full": dict(n=16, bands=4, groups=1, iterations=2, band_iterations=4,
                     checkpoint=False, passes=5, serial_passes=5),
        "quick": dict(n=8, bands=2, groups=1, iterations=1, band_iterations=2,
                      checkpoint=False, passes=2, serial_passes=2),
    },
    "scf_bands": {
        "full": dict(n=16, bands=16, groups=2, iterations=2, band_iterations=4,
                     checkpoint=True, passes=5, serial_passes=5),
        "quick": dict(n=8, bands=4, groups=2, iterations=1, band_iterations=2,
                      checkpoint=True, passes=2, serial_passes=2),
    },
    "des_replay": {
        "full": dict(n=128, grids=16, approach="flat-optimized", cores=4096,
                     batch=4, passes=5),
        "quick": dict(n=64, grids=8, approach="flat-optimized", cores=512,
                      batch=4, passes=2),
    },
    "des_traced": {
        "full": dict(n=64, grids=20, approach="flat-original", cores=512,
                     batch=1, passes=5),
        "quick": dict(n=32, grids=8, approach="flat-original", cores=64,
                      batch=1, passes=2),
    },
    "plan_rank": {
        "full": dict(n=192, grids=2816, cores=16384, max_groups=8, passes=5),
        "quick": dict(n=64, grids=256, cores=1024, max_groups=4, passes=2),
    },
}

#: span name -> the per-layer metric its self time is charged to.  A span
#: name missing here is charged nowhere, so the layer table falls short of
#: the pass and ``selfcheck.py`` reports it.
SELF_TIME_OF = {
    "step.ComputeInterior": "stencil.kernel_s",
    "step.ApplyLocalWraps": "grid.local_wrap_s",
    "step.ComputeBoundary": "grid.local_wrap_s",
    "step.PostSend": "engine.post_send_s",
    "step.WaitAll": "engine.wait_all_s",
    "step.PostRecv": "engine.interp_self_s",
    "step.GridBarrier": "engine.interp_self_s",
    "step.JoinBarrier": "engine.interp_self_s",
    "engine.apply": "engine.interp_self_s",
    "transport.send": "transport.send_s",
    "transport.wait": "transport.wait_s",
    "transport.allreduce": "transport.allreduce_s",
    "poisson.solve": "poisson.solve_s",
    "ring.RingSendRecv": "subspace.ring_s",
    "ring.PartialGemm": "subspace.gemm_s",
    "ring.WaitAll": "subspace.ring_wait_s",
    "checkpoint.deposit": "checkpoint.deposit_s",
    "trace.materialize": "trace.materialize_s",
    "critpath": "critpath.s",
}
SELF_TIME_METRICS = sorted(set(SELF_TIME_OF.values())) + [
    "scf.other_self_s", "run.other_self_s",
]

#: counts that must repeat exactly from pass to pass
EXACT_COUNTS = (
    "stencil.points", "grid.halo_messages", "grid.halo_bytes",
    "transport.messages", "transport.bytes", "transport.allreduce_calls",
    "engine.apply_calls", "engine.steps", "schedule.cache_hits",
    "schedule.cache_misses", "poisson.sweeps", "subspace.ring_steps",
    "checkpoint.deposits", "checkpoint.bytes", "scf.iterations",
    "des.events", "des.ir_steps", "des.messages", "des.sim_makespan_s",
    "des.sim_utilization", "trace.spans", "planner.candidates",
    "planner.rejected",
)

ENERGY_TOLERANCE = 1e-10
BUCKET_TOLERANCE = 1e-12


# -- correctness checks (pure functions, so selfcheck.py can feed them a
# -- perturbed output and watch them fail) -----------------------------------
def check_fd(outputs: dict, reference: dict) -> bool:
    """Distributed result bit-identical to ``SequentialStencil``."""
    return sorted(outputs) == sorted(reference) and all(
        np.array_equal(outputs[g], reference[g]) for g in reference
    )


def check_energy(energy: float, serial_energy: float) -> bool:
    """The repo's nb>1 == nb=1 == serial contract, at 1e-10."""
    return abs(energy - serial_energy) <= ENERGY_TOLERANCE * max(
        1.0, abs(serial_energy)
    )


def check_checkpoint(latest_iteration, expected_iteration: int) -> bool:
    return latest_iteration == expected_iteration


def check_des(stats: dict, pinned: dict) -> bool:
    """Every simulated statistic identical to the pinned first run."""
    return bool(pinned) and all(stats.get(k) == v for k, v in pinned.items())


def check_buckets(bucket_sum_err: float) -> bool:
    return bucket_sum_err <= BUCKET_TOLERANCE


def check_plan(outcome: dict, pinned: dict) -> bool:
    return outcome == pinned


@dataclass
class PassResult:
    wall: float
    output: object  # what ``Workload.check`` receives
    counters: dict = field(default_factory=dict)  # traced passes only


class Workload:
    """One benchmark workload.  Subclasses fill in the pieces."""

    real_plane = False  # runs rank threads, has a 1-thread baseline
    remainder_metric = None  # where the un-spanned rest of a pass is charged

    def __init__(self, name: str, seed: int, quick: bool, out_dir: Path):
        self.name = name
        self.seed = seed
        self.mode = "quick" if quick else "full"
        self.p = SIZES[name][self.mode]
        self.out_dir = out_dir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec=None) -> PassResult:
        raise NotImplementedError

    def run_serial(self) -> PassResult:
        raise NotImplementedError

    def check(self, output) -> bool:
        raise NotImplementedError

    def check_serial(self, output) -> bool:
        return self.check(output)

    def pass_layers(self, result: PassResult, threads: dict) -> dict:
        """Per-layer values of one traced pass."""
        return {}

    def probes(self, layers: dict, walls: list) -> dict:
        return {}

    def close(self) -> None:
        pass


def median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return statistics.median(samples)


def self_time_layers(wall, threads, thread, remainder_metric) -> tuple[dict, dict]:
    """Charge one thread's span self times to their layers.

    The pass is the root: what the thread's outermost spans do not cover
    (un-spanned Python, thread start and join, scatter and gather on the
    calling thread) goes to ``remainder_metric``, so the table sums to
    the pass.
    """
    ts = threads.get(thread)
    if ts is None:
        return {}, {}
    stats = name_stats(ts)
    layers: dict = {}
    for name, st in stats.items():
        metric = SELF_TIME_OF.get(name)
        if metric is not None:
            layers[metric] = layers.get(metric, 0.0) + st.self_time
    if remainder_metric is not None:
        layers[remainder_metric] = wall - top_level_total(ts)
    return layers, stats


def _count(stats, name) -> int:
    st = stats.get(name)
    return st.count if st else 0


def _ratio(num, den):
    return num / den if den else None


# -- the functional engine, used both ways ------------------------------------
class RealPlaneWorkload(Workload):
    real_plane = True
    #: self-time layers a pass of this workload can spend time in; one it
    #: recorded no span for reads 0 s, not "does not apply"
    layers_used = (
        "stencil.kernel_s", "grid.local_wrap_s", "engine.post_send_s",
        "engine.wait_all_s", "engine.interp_self_s", "transport.send_s",
        "transport.wait_s", "transport.allreduce_s",
    )

    def _engine_layers(self, layers, stats, counters, block_points) -> None:
        """Metrics every real-plane workload derives from rank 0's spans."""
        for metric in self.layers_used:
            layers.setdefault(metric, 0.0)
        steps = sum(
            st.count for name, st in stats.items()
            if name.startswith("step.") and "@" not in name
        )
        apply_st = stats.get("engine.apply")
        halo = stats.get("transport.send@step.PostSend")
        kernel_s = layers.get("stencil.kernel_s", 0.0)
        points = _count(stats, "step.ComputeInterior") * block_points
        layers.update({
            "stencil.points": points,
            "stencil.mpoints_per_s": _ratio(points / 1e6, kernel_s),
            "grid.halo_messages": halo.count if halo else 0,
            "grid.halo_bytes": halo.value if halo else 0,
            "transport.allreduce_calls": _count(stats, "transport.allreduce"),
            "engine.apply_calls": apply_st.count if apply_st else 0,
            "engine.apply_s": apply_st.total if apply_st else 0.0,
            "engine.steps": steps,
            "engine.us_per_step": _ratio(
                1e6 * layers.get("engine.interp_self_s", 0.0), steps
            ),
        })
        layers.update(counters)
        alloc = counters.get("workspace.allocations")
        reuse = counters.get("workspace.reuses")
        if alloc is not None and reuse is not None:
            layers["workspace.reuse_ratio"] = _ratio(reuse, alloc + reuse)

    def _common_probes(self) -> dict:
        """Kernel constants and stand-alone 2-thread hand-off costs."""
        n, reps = (100, 3) if self.mode == "quick" else (300, 3)
        buf = np.zeros(8)

        def pingpong(ep):
            other = 1 - ep.rank
            t0 = clock()
            for _ in range(n):
                if ep.rank == 0:
                    ep.send(other, buf, tag=1)
                    ep.recv(src=other, tag=2)
                else:
                    ep.recv(src=other, tag=1)
                    ep.send(other, buf, tag=2)
            return (clock() - t0) / (2 * n)

        def allreduce(ep):
            t0 = clock()
            for _ in range(n):
                ep.allreduce(1.0)
            return (clock() - t0) / n

        coeffs = A.laplacian_coefficients(2)
        return {
            "stencil.flops_per_point": (
                A.flops_per_point(coeffs) if A.flops_per_point else None),
            # radius 2: 13 reads + 1 scratch pass + 1 write, 8 B each;
            # computed from array sizes, not measured traffic
            "stencil.bytes_per_point_computed": 15 * 8,
            "transport.pingpong_probe_us": 1e6 * statistics.median(
                A.run_ranks(2, pingpong)[0] for _ in range(reps)
            ),
            "transport.allreduce_probe_us": 1e6 * statistics.median(
                A.run_ranks(2, allreduce)[0] for _ in range(reps)
            ),
        }


def halo_probe(engine, plan, blocks: dict, reps: int = 5):
    """(pack, unpack) seconds of one ``apply``'s messages on rank 0.

    Replays ``pack_slabs``/``unpack_slabs`` alone at exactly the slab
    shapes and message count the compiled plan gives rank 0.
    """
    if A.pack_slabs is None or A.unpack_slabs is None:
        return None, None
    try:
        send_geom = {(m.dim, m.step): m for m in engine.outgoing(0)}
        recv_geom = {(m.dim, m.step): m for m in engine.incoming(0)}
        grid_ids = sorted(blocks)
        packs, unpacks = [], []
        for wp in plan.rank_plan(0).workers:
            for st in wp.steps:
                kind = type(st).__name__
                if kind not in ("PostSend", "PostRecv"):
                    continue
                arrays = [blocks[grid_ids[i]].data for i in st.grid_ids]
                if kind == "PostSend":
                    slices = send_geom[(st.dim, st.step)].send_slices
                    buf = np.empty((len(arrays),) + arrays[0][slices].shape)
                    packs.append((arrays, slices, buf))
                else:
                    slices = recv_geom[(st.dim, st.step)].recv_slices
                    buf = np.zeros((len(arrays),) + arrays[0][slices].shape)
                    unpacks.append((buf, arrays, slices))
    except (AttributeError, KeyError):
        return None, None
    pack = median_time(lambda: [A.pack_slabs(*job) for job in packs], reps)
    unpack = median_time(lambda: [A.unpack_slabs(*job) for job in unpacks], reps)
    return pack, unpack


def cold_compile(engine, approach, n_grids, batch, n_ranks) -> float:
    """Seconds to compile one plan (all its rank plans) from a cold cache."""
    A.clear_plan_cache()
    t0 = clock()
    plan = engine.plan_for(approach, n_grids, batch)
    for r in range(n_ranks):
        plan.rank_plan(r)
    return clock() - t0


def cache_stats():
    return A.plan_cache_stats() if A.plan_cache_stats else None


def cache_counters(before, after) -> dict:
    """Plan-cache hits and misses between two ``plan_cache_stats()`` reads."""
    if before is None or after is None:
        return {}
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "schedule.cache_hits": hits,
        "schedule.cache_misses": misses,
        "schedule.cache_hit_ratio": _ratio(hits, hits + misses),
    }


def transport_counters(registry) -> dict:
    """Messages and bytes over all ranks, from the registry's counters."""
    if registry is None:
        return {}
    return {
        "transport.messages": registry.total("transport_messages_total"),
        "transport.bytes": registry.total("transport_bytes_total"),
    }


class FDWorkload(RealPlaneWorkload):
    """``sweeps`` applications of the distributed stencil to one grid set."""

    remainder_metric = "run.other_self_s"

    def setup(self) -> None:
        p = self.p
        shape = (p["n"],) * 3
        rng = np.random.default_rng(self.seed)
        self.grid = A.GridDescriptor(shape, pbc=(True, True, True), spacing=0.2)
        self.arrays = {g: rng.standard_normal(shape) for g in range(p["grids"])}
        self.approach = A.approach_by_name(p["approach"])
        self.coeffs = A.laplacian_coefficients(2, spacing=self.grid.spacing)
        self.halo = A.HaloSpec(2)
        self.par = self._build(2)
        self.ser = None
        self._reference = None

    def _build(self, n_ranks: int) -> SimpleNamespace:
        decomp = A.Decomposition(self.grid, n_ranks)
        engine = A.DistributedStencil(decomp, self.coeffs)
        blocks = {g: A.scatter(a, decomp, self.halo) for g, a in self.arrays.items()}
        plan = engine.plan_for(self.approach, len(blocks), self.p["batch"])
        for r in range(n_ranks):
            plan.rank_plan(r)
        # out= blocks live across passes: steady state allocates nothing
        return SimpleNamespace(
            n_ranks=n_ranks, decomp=decomp, engine=engine, blocks=blocks,
            plan=plan, out=[None] * n_ranks,
        )

    def _run(self, b, rec=None) -> PassResult:
        p = self.p
        engine = b.engine if rec is None else TimedEngine(b.engine, rec)
        for out in b.out:  # a pass that computed nothing must fail the check
            for lg in (out or {}).values():
                lg.interior[...] = np.nan

        def rank_fn(ep):
            mine = {g: blocks[ep.rank] for g, blocks in b.blocks.items()}
            out = b.out[ep.rank]
            for _ in range(p["sweeps"]):
                out = engine.apply(
                    ep, mine, approach=self.approach, batch_size=p["batch"],
                    out=out,
                )
            b.out[ep.rank] = out

        transport = registry = None
        counters: dict = {}
        if rec is not None:
            registry = A.MetricsRegistry() if A.MetricsRegistry else None
            transport = TimedTransport(
                A.InprocTransport(b.n_ranks, metrics=registry), rec
            )
            ws = b.engine.workspace
            before = (ws.allocations, ws.reuses)
            cache0 = cache_stats()
        t0 = clock()
        A.run_ranks(b.n_ranks, rank_fn, transport=transport)
        wall = clock() - t0
        if rec is not None:
            counters = {
                "workspace.allocations": ws.allocations - before[0],
                "workspace.reuses": ws.reuses - before[1],
                **cache_counters(cache0, cache_stats()),
                **transport_counters(registry),
            }
        outputs = {
            g: A.gather([b.out[r][g] for r in range(b.n_ranks)])
            for g in b.blocks
        }
        return PassResult(wall, outputs, counters)

    def run_pass(self, rec=None) -> PassResult:
        return self._run(self.par, rec)

    def run_serial(self) -> PassResult:
        if self.ser is None:
            self.ser = self._build(1)
        return self._run(self.ser)

    def check(self, output) -> bool:
        if self._reference is None:
            self._reference = A.SequentialStencil(self.grid, self.coeffs).apply(
                self.arrays
            )
        return check_fd(output, self._reference)

    def pass_layers(self, result, threads) -> dict:
        layers, stats = self_time_layers(
            result.wall, threads, REPORTED_THREAD, self.remainder_metric
        )
        block = self.par.decomp.block_shape(0)
        self._engine_layers(
            layers, stats, result.counters, block[0] * block[1] * block[2]
        )
        return layers

    def probes(self, layers, walls) -> dict:
        p, b = self.p, self.par
        out = self._common_probes()
        mine = {g: blocks[0] for g, blocks in b.blocks.items()}
        if A.apply_stencil_batch is not None:
            stack = np.stack([mine[g].data for g in sorted(mine)[: p["batch"]]])
            dest = np.empty((stack.shape[0],) + b.decomp.block_shape(0))
            secs = median_time(
                lambda: A.apply_stencil_batch(stack, self.coeffs, out_stack=dest), 5
            )
            out["stencil.batch_probe_mpoints_per_s"] = dest.size / 1e6 / secs
        pack, unpack = halo_probe(b.engine, b.plan, mine)
        if pack is not None:
            out["grid.pack_probe_s"] = pack * p["sweeps"]
            out["grid.unpack_probe_s"] = unpack * p["sweeps"]
        first = self.arrays[0]
        out["grid.scatter_gather_probe_s"] = len(self.arrays) * median_time(
            lambda: A.gather(A.scatter(first, b.decomp, self.halo)), 5
        )
        out["schedule.compile_probe_s"] = cold_compile(
            b.engine, self.approach, len(b.blocks), p["batch"], 2
        )
        return out


# -- one distributed SCF iteration loop, two decompositions -------------------
_RING_RESOURCE = re.compile(r"bg(\d+)\.rank(\d+)\.")


class SCFWorkload(RealPlaneWorkload):
    """``DistributedSCF.from_spec(...).run()`` on the harmonic well."""

    remainder_metric = "scf.other_self_s"
    layers_used = RealPlaneWorkload.layers_used + (
        "poisson.solve_s", "subspace.ring_s", "subspace.gemm_s",
        "subspace.ring_wait_s", "checkpoint.deposit_s",
    )

    def setup(self) -> None:
        p = self.p
        shape = (p["n"],) * 3
        h = 0.6
        axes = [(np.arange(n) - (n - 1) / 2) * h for n in shape]
        x, y, z = np.meshgrid(*axes, indexing="ij")
        self.potential = 0.5 * (x ** 2 + 1.44 * y ** 2 + 1.96 * z ** 2)
        problem = A.ProblemSpec(
            shape, p["bands"], pbc=(False, False, False), spacing=h
        )
        runtime = A.RuntimeSpec(
            tolerance=0.0, max_iterations=p["iterations"],
            band_iterations=p["band_iterations"], mixing=0.6, seed=self.seed,
            checkpoint_every=1,
        )
        self.spec = A.JobSpec(problem, A.LayoutSpec(
            "flat-optimized", n_cores=2, n_band_groups=p["groups"]), runtime)
        self.serial_spec = A.JobSpec(
            problem, A.LayoutSpec("flat-optimized", n_cores=1), runtime)
        # compiles the kinetic, Poisson and band-ring plans into the cache
        A.DistributedSCF.from_spec(self.spec, self.potential)
        self.serial_energy = None
        self._tmp_count = 0
        self._kept_store = None

    def _fresh_dir(self) -> Path:
        self._tmp_count += 1
        path = self.out_dir / f"ckpt_{self.name}_{os.getpid()}_{self._tmp_count}"
        path.mkdir(parents=True)
        return path

    def _run(self, spec, rec=None, checkpoint=False) -> PassResult:
        directory = self._fresh_dir() if checkpoint else None
        counters: dict = {}
        try:
            if rec is None:
                t0 = clock()
                store = (
                    A.FileCheckpointStore.from_spec(spec, directory)
                    if checkpoint else None
                )
                result = A.DistributedSCF.from_spec(
                    spec, self.potential, checkpoint_store=store
                ).run()
                wall = clock() - t0
            else:
                wall, result, store, counters = self._run_traced(
                    spec, rec, directory
                )
            latest = store.latest().iteration if store is not None else None
            return PassResult(
                wall, (float(result.total_energy), latest), counters
            )
        finally:
            if directory is not None:
                if rec is not None:  # the read-side probes need one store
                    self._drop_kept_store()
                    self._kept_store = directory
                else:
                    shutil.rmtree(directory, ignore_errors=True)

    def _run_traced(self, spec, rec, directory):
        registry = A.MetricsRegistry() if A.MetricsRegistry else None
        cache0 = cache_stats()
        tracer = A.SpanTracer()
        t0 = clock()
        store = None
        if directory is not None:
            store = TimedCheckpointStore(
                A.FileCheckpointStore.from_spec(spec, directory), rec
            )
        scf = A.DistributedSCF.from_spec(
            spec, self.potential, checkpoint_store=store, metrics=registry
        )
        engines = instrument_scf(scf, rec)
        result = scf.run(
            transport=TimedTransport(
                A.InprocTransport(spec.layout.n_cores, metrics=registry), rec
            ),
            step_tracer=tracer,
        )
        wall = clock() - t0
        counters = cache_counters(cache0, cache_stats())
        ranks_per_group = spec.layout.n_cores // spec.layout.n_band_groups
        ring: dict = {}
        for span in tracer.spans():
            m = _RING_RESOURCE.match(span.resource)
            if m:
                rank = int(m.group(1)) * ranks_per_group + int(m.group(2))
                ring.setdefault(f"rank{rank}", []).append(
                    ("ring." + span.step_kind, span.start, span.end, 0))
        for thread, spans in ring.items():
            rec.extend(thread, spans)
        if engines:
            counters["workspace.allocations"] = sum(
                e.workspace.allocations for e in engines)
            counters["workspace.reuses"] = sum(
                e.workspace.reuses for e in engines)
        counters.update(transport_counters(registry))
        if registry is not None:
            counters["scf.iterations"] = registry.value("scf_iterations_total")
            counters["scf.iter_s"] = registry.histogram(
                "scf_iteration_seconds").mean
        return wall, result, store, counters

    def _drop_kept_store(self) -> None:
        if self._kept_store is not None:
            shutil.rmtree(self._kept_store, ignore_errors=True)
            self._kept_store = None

    def run_pass(self, rec=None) -> PassResult:
        return self._run(self.spec, rec, checkpoint=self.p["checkpoint"])

    def run_serial(self) -> PassResult:
        result = self._run(self.serial_spec)
        if self.serial_energy is None:
            self.serial_energy = result.output[0]
        return result

    def check_serial(self, output) -> bool:
        return check_energy(output[0], self.serial_energy)

    def check(self, output) -> bool:
        energy, latest = output
        if self.serial_energy is None:
            self.run_serial()
        ok = check_energy(energy, self.serial_energy)
        if self.p["checkpoint"]:
            ok = ok and check_checkpoint(latest, self.p["iterations"])
        return ok

    def pass_layers(self, result, threads) -> dict:
        layers, stats = self_time_layers(
            result.wall, threads, REPORTED_THREAD, self.remainder_metric
        )
        n = self.p["n"]
        ranks_per_group = 2 // self.p["groups"]
        self._engine_layers(
            layers, stats, result.counters, n ** 3 // ranks_per_group)
        solve = stats.get("poisson.solve")
        sweeps = _count(stats, "engine.apply@poisson.solve")
        deposit = stats.get("checkpoint.deposit")
        layers.update({
            "poisson.sweeps": sweeps,
            "poisson.us_per_sweep": _ratio(
                1e6 * (solve.total if solve else 0.0), sweeps),
            "subspace.ring_steps": sum(
                st.count for name, st in stats.items()
                if name.startswith("ring.") and "@" not in name
            ),
            "checkpoint.deposits": deposit.count if deposit else 0,
            "checkpoint.bytes": deposit.value if deposit else 0,
            "checkpoint.mb_per_s": _ratio(
                deposit.value / 2 ** 20, deposit.total) if deposit else None,
        })
        return layers

    def probes(self, layers, walls) -> dict:
        p = self.p
        out = self._common_probes()
        scf = A.DistributedSCF.from_spec(self.spec, self.potential)
        kinetic = getattr(scf, "kinetic_engine", None)
        poisson_engine = getattr(getattr(scf, "poisson", None), "engine", None)
        bands_per_group = p["bands"] // p["groups"]
        sweeps = layers.get("poisson.sweeps") or 0
        kinetic_calls = (layers.get("engine.apply_calls") or 0) - sweeps
        if kinetic is not None and poisson_engine is not None:
            approach = self.spec.approach_obj()
            halo = A.HaloSpec(2)
            blocks = {
                g: A.scatter(self.potential, scf.decomp, halo)[0]
                for g in range(bands_per_group)
            }
            pk, uk = halo_probe(
                kinetic, kinetic.plan_for(approach, bands_per_group), blocks)
            pp, up = halo_probe(
                poisson_engine, poisson_engine.plan_for(approach, 1),
                {0: blocks[0]})
            if pk is not None and pp is not None:
                out["grid.pack_probe_s"] = pk * kinetic_calls + pp * sweeps
                out["grid.unpack_probe_s"] = uk * kinetic_calls + up * sweeps
            # what one run() scatters (potential + bands) and gathers
            # (bands + density)
            out["grid.scatter_gather_probe_s"] = (p["bands"] + 1) * median_time(
                lambda: A.gather(A.scatter(self.potential, scf.decomp, halo)), 5
            )
            out["schedule.compile_probe_s"] = (
                cold_compile(kinetic, approach, bands_per_group, 1,
                             scf.decomp.n_domains)
                + cold_compile(poisson_engine, approach, 1, 1,
                               scf.decomp.n_domains)
            )
        if A.lowdin is not None:
            rng = np.random.default_rng(self.seed)
            states = rng.standard_normal((p["bands"],) + self.potential.shape)
            grid = self.spec.grid()
            out["ortho.lowdin_probe_s"] = median_time(
                lambda: A.lowdin(grid, states), 5)
        if self._kept_store is not None:
            store = A.FileCheckpointStore.from_spec(self.spec, self._kept_store)
            out["checkpoint.load_probe_s"] = median_time(store.latest, 3)
            if A.regroup_checkpoint is not None:
                ckpt = store.latest()
                grid = self.spec.grid()
                out["checkpoint.regroup_probe_s"] = median_time(
                    lambda: (A.regroup_checkpoint(ckpt, grid, 2, 1),
                             A.regroup_checkpoint(ckpt, grid, 1, 1)), 3)
        return out

    def close(self) -> None:
        self._drop_kept_store()


def instrument_scf(scf, rec) -> list:
    """Place timing proxies on the SCF's engine seams; returns the engines.

    A seam the object does not have is skipped — its layer then reads
    zero spans and the remainder absorbs the time.
    """
    engines = []
    kinetic = getattr(scf, "kinetic_engine", None)
    if kinetic is not None:
        engines.append(kinetic)
        scf.kinetic_engine = TimedEngine(kinetic, rec)
    poisson = getattr(scf, "poisson", None)
    if poisson is not None and hasattr(poisson, "_rank_solve"):
        if getattr(poisson, "engine", None) is not None:
            engines.append(poisson.engine)
            poisson.engine = TimedEngine(poisson.engine, rec)
        scf.poisson = TimedPoisson(poisson, rec)
    return engines


# -- the DES plane --------------------------------------------------------------
def des_stats(result) -> dict:
    return {
        "events": result.events,
        "ir_steps": result.ir_steps,
        "messages": result.messages,
        "sim_makespan_s": result.total,
        "sim_utilization": result.utilization,
    }


def des_layers(stats: dict, wall: float) -> dict:
    layers = {"des." + k: v for k, v in stats.items()}
    layers["des.events_per_s"] = _ratio(stats["events"], wall)
    layers["des.us_per_event"] = _ratio(1e6 * wall, stats["events"])
    return layers


class DESWorkload(Workload):
    """One FD invocation replayed on the simulated machine."""

    def setup(self) -> None:
        p = self.p
        self.spec = A.JobSpec(
            A.ProblemSpec((p["n"],) * 3, p["grids"]),
            A.LayoutSpec(p["approach"], n_cores=p["cores"], batch_size=p["batch"]),
        )
        self.pinned = PINNED[self.name][self.mode]


class DESReplayWorkload(DESWorkload):
    """Host time of one paper-scale replay, trace capture off."""

    def run_pass(self, rec=None) -> PassResult:
        p = self.p
        t0 = clock()
        result = A.simulate_fd(
            self.spec.problem.fd_job(), self.spec.approach_obj(), p["cores"],
            batch_size=p["batch"],
        )
        t1 = clock()
        if rec is not None:
            rec.add("des.replay", t0, t1)
        return PassResult(t1 - t0, des_stats(result))

    def check(self, output) -> bool:
        return check_des(output, self.pinned)

    def pass_layers(self, result, threads) -> dict:
        return des_layers(result.output, result.wall)

    def probes(self, layers, walls) -> dict:
        return {"des.compile_probe_s": des_compile_probe(self.spec)}


def des_compile_probe(spec):
    """Cold schedule compile of every rank plan the replay walks."""
    if A.plan_for_spec is None:
        return None
    A.clear_plan_cache()
    t0 = clock()
    plan = A.plan_for_spec(spec)
    for d in range(plan.decomp.n_domains):
        plan.rank_plan(d)
    return clock() - t0


class DESTracedWorkload(DESWorkload):
    """Replay with span capture on, then critical-path attribution."""

    def run_pass(self, rec=None) -> PassResult:
        t0 = clock()
        tracer = A.SpanTracer(plane="sim")
        result = A.simulate_spec(self.spec, step_tracer=tracer)
        t1 = clock()
        if rec is not None:
            # materialize on its own so capture and attribution separate;
            # critical_path would otherwise do it inside its first line
            n_spans = len(tracer.spans())
            t2 = clock()
        cp = A.critical_path(tracer, plan=A.plan_for_spec(self.spec))
        t3 = clock()
        if rec is not None:
            rec.add("des.replay", t0, t1)
            rec.add("trace.materialize", t1, t2)
            rec.add("critpath", t2, t3)
        else:
            n_spans = cp.n_spans
        stats = des_stats(result)
        stats["spans"] = n_spans
        stats["bucket_sum_err"] = abs(sum(cp.buckets.values()) - cp.wall_time)
        return PassResult(t3 - t0, stats)

    def check(self, output) -> bool:
        return check_des(output, self.pinned) and check_buckets(
            output["bucket_sum_err"]
        )

    def pass_layers(self, result, threads) -> dict:
        layers, named = self_time_layers(result.wall, threads, "MainThread", None)
        stats = dict(result.output)
        spans = stats.pop("spans")
        layers["critpath.bucket_sum_err"] = stats.pop("bucket_sum_err")
        layers.update(des_layers(stats, named["des.replay"].total))
        layers["trace.spans"] = spans
        layers["critpath.us_per_span"] = _ratio(
            1e6 * layers.get("critpath.s", 0.0), spans)
        return layers

    def probes(self, layers, walls) -> dict:
        # the same replay with and without step_tracer: what capture costs
        bare = median_time(lambda: A.simulate_spec(self.spec), 2)
        captured = median_time(
            lambda: A.simulate_spec(
                self.spec, step_tracer=A.SpanTracer(plane="sim")), 2)
        spans = layers.get("trace.spans") or 0
        return {
            "trace.capture_s": captured - bare,
            "trace.us_per_span": _ratio(1e6 * (captured - bare), spans),
            "des.compile_probe_s": des_compile_probe(self.spec),
        }


# -- the model plane ------------------------------------------------------------
class PlanRankWorkload(Workload):
    """What ``repro plan --cores N`` costs: one cold ``Planner.rank``."""

    def setup(self) -> None:
        p = self.p
        self.problem = A.ProblemSpec((p["n"],) * 3, p["grids"])
        self.pinned = PINNED[self.name][self.mode]
        A.Planner()

    def _rank(self):
        p = self.p
        return A.Planner().rank(
            self.problem, p["cores"], max_groups=p["max_groups"])

    def run_pass(self, rec=None) -> PassResult:
        A.clear_plan_cache()
        t0 = clock()
        result = self._rank()
        t1 = clock()
        counters = {}
        if rec is not None:
            rec.add("planner.rank", t0, t1)
            # the cache was cleared just before: its counters are this pass's
            counters = cache_counters({"hits": 0, "misses": 0}, cache_stats())
        best = result.best().spec.layout
        outcome = {
            "choices": len(result.choices),
            "rejected": len(result.rejected),
            "best": [best.approach, best.batch_size, best.n_band_groups],
        }
        return PassResult(t1 - t0, outcome, counters)

    def check(self, output) -> bool:
        return check_plan(output, self.pinned)

    def pass_layers(self, result, threads) -> dict:
        outcome = result.output
        layers = dict(result.counters)
        layers.update({
            "planner.candidates": outcome["choices"],
            "planner.rejected": outcome["rejected"],
            "planner.us_per_candidate": _ratio(
                1e6 * result.wall, outcome["choices"]),
        })
        return layers

    def probes(self, layers, walls) -> dict:
        p = self.p
        self._rank()  # fill the cache
        warm = median_time(self._rank, 3)
        out = {
            "planner.warm_rank_s": warm,
            # derived, not a stand-alone call: the cold rank minus the warm
            # one is what the schedule compiler costs this workload
            "schedule.compile_probe_s": statistics.median(walls) - warm,
        }
        if A.PerformanceModel is not None:
            model = A.PerformanceModel(A.BGP_SPEC)
            job = self.problem.fd_job()
            approach = A.approach_by_name("hybrid-multiple")
            out["model.evaluate_probe_us"] = 1e6 * median_time(
                lambda: model.evaluate(job, approach, p["cores"], 16), 20)
            # the paper's headline (section VIII): hybrid multiple vs flat
            # original on the Fig. 7 job at 16384 cores, 1.94 in the paper
            fig7 = A.FDJob(A.GridDescriptor((192,) * 3), 2816)
            original = model.evaluate(
                fig7, A.approach_by_name("flat-original"), 16384)
            hybrid = model.best_batch_size(fig7, approach, 16384)
            speedup = original.total / hybrid.total
            out["model.headline_speedup"] = speedup
            out["model.headline_rel_err"] = abs(speedup - 1.94) / 1.94
        return out


WORKLOADS = {
    "fd_bulk": FDWorkload,
    "fd_latency": FDWorkload,
    "scf_domain": SCFWorkload,
    "scf_bands": SCFWorkload,
    "des_replay": DESReplayWorkload,
    "des_traced": DESTracedWorkload,
    "plan_rank": PlanRankWorkload,
}


def make(name: str, seed: int, quick: bool, out_dir: Path) -> Workload:
    return WORKLOADS[name](name, seed, quick, out_dir)
