"""The paper's evaluation, experiment by experiment.

Workload parameters are taken verbatim from section VII:

* **Fig 5** — 32 grids of 144^3 (the largest single-core-feasible job),
  1..4096 cores, batching off (left) / batch-size 8 (right).
* **Fig 6** — Gustafson scaling: grids = cores, 192^3 grids, best
  batch-size per point; right axis: communication per node.
* **Fig 7** — 2816 grids of 192^3, 1k..16k cores, best batch-size,
  speedups relative to Flat original at 1k cores.
* **Headline** (section VIII) — 1.94x at 16384 cores, utilization
  36% -> 70%, hybrid 10% over flat optimized.
* **Section VII-A ablation** — flat optimized with static sub-groups
  behaves identically to hybrid multiple.

The Fig 5/6/7 sweeps are pure functions of their arguments and each
prices hundreds of configurations (seconds at paper scale), so each
distinct sweep is computed once per process: ``repro report``, the
per-figure commands and the tests share it.  Every caller gets its own
copy of the rows.
"""

from __future__ import annotations

import copy
import functools
import inspect
from dataclasses import dataclass

from repro.core.approaches import (
    ALL_APPROACHES,
    FLAT_OPTIMIZED,
    FLAT_ORIGINAL,
    HYBRID_MULTIPLE,
)
from repro.core.perfmodel import FDJob, FDTiming, PerformanceModel
from repro.grid.grid import GridDescriptor
from repro.machine.spec import BGP_SPEC, table1_rows
from repro.netmodel.pingpong import BandwidthPoint, measured_bandwidth_curve

#: Fig 5 workload (section VII: "a relatively small job containing only 32
#: real-space grids ... size of 144^3")
FIG5_JOB = FDJob(GridDescriptor((144, 144, 144)), 32)
FIG5_CORES = (1, 16, 64, 256, 512, 1024, 2048, 4096)

#: Fig 6/7 grid size (section VII-A: 192^3)
FIG67_GRID = GridDescriptor((192, 192, 192))
FIG6_CORES = (16, 64, 256, 512, 1024, 2048, 4096, 8192, 16384)
FIG7_JOB = FDJob(FIG67_GRID, 2816)
FIG7_CORES = (1024, 2048, 4096, 8192, 16384)


def table1() -> list[tuple[str, str]]:
    """Table I: hardware description of a Blue Gene/P node."""
    return table1_rows()


def fig2_rows() -> list[BandwidthPoint]:
    """Fig 2: ping-pong bandwidth vs message size on the DES machine."""
    return measured_bandwidth_curve()


@dataclass(frozen=True)
class Fig5Row:
    n_cores: int
    #: speedup vs the one-core sequential run, per approach name
    speedups: dict[str, float]


def _once_per_process(sweep):
    """Memoize a figure sweep on its arguments (``cores`` as a tuple)."""
    signature = inspect.signature(sweep)
    cached = functools.lru_cache(maxsize=None)(sweep)

    @functools.wraps(sweep)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if "cores" in bound.arguments:
            bound.arguments["cores"] = tuple(bound.arguments["cores"])
        return copy.deepcopy(cached(*bound.arguments.values()))

    return wrapper


@_once_per_process
def fig5_rows(
    batching: bool, cores: tuple[int, ...] = FIG5_CORES
) -> list[Fig5Row]:
    """Fig 5 (left: batching disabled; right: batch-size 8)."""
    pm = PerformanceModel()
    seq = pm.sequential_time(FIG5_JOB)
    rows = []
    for p in cores:
        speedups = {}
        for a in ALL_APPROACHES:
            if batching and not a.supports_batching and a is not FLAT_ORIGINAL:
                continue
            b = 8 if (batching and a.supports_batching) else 1
            t = pm.evaluate(FIG5_JOB, a, p, batch_size=b)
            speedups[a.name] = seq / t.total
        rows.append(Fig5Row(n_cores=p, speedups=speedups))
    return rows


@dataclass(frozen=True)
class Fig6Row:
    n_cores: int  # == number of grids (one grid per CPU-core)
    #: running time in seconds per approach (best batch-size)
    times: dict[str, float]
    #: inter-node MB per node for the flat and hybrid decompositions
    flat_comm_mb: float
    hybrid_comm_mb: float


@_once_per_process
def fig6_rows(cores: tuple[int, ...] = FIG6_CORES) -> list[Fig6Row]:
    """Fig 6: Gustafson graph, grids = cores, 192^3, best batch-size.

    Times are one application of the FD operation (the paper's absolute
    scale corresponds to repeated applications; the shape is
    iteration-count invariant).
    """
    pm = PerformanceModel()
    rows = []
    for p in cores:
        job = FDJob(FIG67_GRID, p)
        times = {}
        for a in ALL_APPROACHES:
            t = (
                pm.best_batch_size(job, a, p)
                if a.supports_batching
                else pm.evaluate(job, a, p)
            )
            times[a.name] = t.total
        flat = pm.best_batch_size(job, FLAT_OPTIMIZED, p)
        hyb = pm.best_batch_size(job, HYBRID_MULTIPLE, p)
        rows.append(
            Fig6Row(
                n_cores=p,
                times=times,
                flat_comm_mb=flat.comm_bytes_per_node / 1e6,
                hybrid_comm_mb=hyb.comm_bytes_per_node / 1e6,
            )
        )
    return rows


@dataclass(frozen=True)
class Fig7Row:
    n_cores: int
    #: speedup relative to Flat original at 1024 cores, per approach
    speedups: dict[str, float]


@_once_per_process
def fig7_rows() -> list[Fig7Row]:
    """Fig 7: 2816-grid job, speedups vs Flat original at 1k cores."""
    pm = PerformanceModel()
    base = pm.evaluate(FIG7_JOB, FLAT_ORIGINAL, FIG7_CORES[0]).total
    rows = []
    for p in FIG7_CORES:
        speedups = {}
        for a in ALL_APPROACHES:
            t = (
                pm.best_batch_size(FIG7_JOB, a, p)
                if a.supports_batching
                else pm.evaluate(FIG7_JOB, a, p)
            )
            speedups[a.name] = base / t.total
        rows.append(Fig7Row(n_cores=p, speedups=speedups))
    return rows


@dataclass(frozen=True)
class HeadlineNumbers:
    """Section VIII's summary numbers."""

    speedup_vs_original: float  # paper: 1.94 at 16384 cores
    utilization_original: float  # paper: 0.36
    utilization_hybrid: float  # paper: 0.70
    hybrid_vs_flat_optimized: float  # paper: ~1.10


def headline_numbers() -> HeadlineNumbers:
    """Reproduce the conclusion's numbers at 16384 cores."""
    pm = PerformanceModel()
    orig = pm.evaluate(FIG7_JOB, FLAT_ORIGINAL, 16384)
    hm = pm.best_batch_size(FIG7_JOB, HYBRID_MULTIPLE, 16384)
    opt = pm.best_batch_size(FIG7_JOB, FLAT_OPTIMIZED, 16384)
    return HeadlineNumbers(
        speedup_vs_original=orig.total / hm.total,
        utilization_original=orig.utilization,
        utilization_hybrid=hm.utilization,
        hybrid_vs_flat_optimized=opt.total / hm.total,
    )


def ablation_subgroups() -> tuple[FDTiming, FDTiming]:
    """Section VII-A: Flat optimized with static sub-groups vs Hybrid multiple.

    The modified flat approach gives each of the node's four processes its
    own sub-group of whole grids on a node-level decomposition — exactly
    hybrid multiple's structure, minus threads.  We model it as hybrid
    multiple with the thread costs removed (no MULTIPLE lock, no
    spawn/join).  The paper found "its performance is identical with the
    Hybrid multiple"; the model should agree to within a few percent.

    Returns ``(subgroup_flat, hybrid_multiple)`` timings at 16384 cores.
    """
    no_thread_cost = BGP_SPEC.with_(
        threads=BGP_SPEC.threads.__class__(
            mpi_multiple_overhead=0.0,
            barrier_time=BGP_SPEC.threads.barrier_time,
            join_time=0.0,
            spawn_time=0.0,
            mpi_call_cpu_time=BGP_SPEC.threads.mpi_call_cpu_time,
        )
    )
    subgroup = PerformanceModel(no_thread_cost).best_batch_size(
        FIG7_JOB, HYBRID_MULTIPLE, 16384
    )
    hybrid = PerformanceModel().best_batch_size(FIG7_JOB, HYBRID_MULTIPLE, 16384)
    return subgroup, hybrid
