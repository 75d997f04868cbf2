"""Checkpoint-cadence and MTBF analysis at paper scale.

The robustness layer (docs/ROBUSTNESS.md) makes a run *survive* faults;
this module answers the operations question that follows: **how often
should a 16384-core run checkpoint, and what does surviving cost?**

The model is Daly's first-order checkpoint optimum [Daly, FGCS 2006]:
for a checkpoint that takes ``delta`` seconds and a system mean time
between failures ``M``, the optimal checkpoint interval is

    tau_opt = sqrt(2 * delta * M)

and the fraction of wall time lost to resilience is approximately

    overhead = delta / tau      (writing checkpoints)
             + tau / (2 * M)    (lost work since the last checkpoint)
             + R / M            (restart time per failure)

System MTBF shrinks linearly with node count — the reason checkpointing
is existential at BG/P scale: a node MTBF of years becomes a system MTBF
of hours at 4096 nodes.

The sweep sizes the checkpoint itself from the same
:class:`~repro.core.perfmodel.FDJob` the performance model evaluates —
the SCF state the functional plane's
:class:`~repro.dft.checkpoint.SCFCheckpoint` actually saves (all wave
functions plus three density/potential fields), so the analytic cadence
and the functional checkpoint format describe the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.perfmodel import FDJob

#: aggregate I/O bandwidth assumed for checkpoint dumps (bytes/s).  A
#: BG/P rack-scale GPFS installation sustained a few GB/s
IO_BANDWIDTH = 4e9

#: time one failure costs before work resumes (job relaunch and
#: checkpoint read, what a RecoveryController retry pays), seconds
RESTART_TIME = 180.0

#: the node MTBFs the cadence sweep visits, in years
NODE_MTBF_YEARS = (50.0, 10.0, 2.0, 0.5)


def optimal_checkpoint_interval(checkpoint_time: float, mtbf: float) -> float:
    """Daly's first-order optimum ``sqrt(2 * delta * M)`` (seconds)."""
    if checkpoint_time <= 0 or mtbf <= 0:
        raise ValueError("checkpoint_time and mtbf must be positive")
    return math.sqrt(2.0 * checkpoint_time * mtbf)


def resilience_overhead(
    interval: float, checkpoint_time: float, mtbf: float
) -> float:
    """Fraction of wall time lost to checkpoints, rework and restarts."""
    if interval <= 0 or mtbf <= 0:
        raise ValueError("interval and mtbf must be positive")
    return checkpoint_time / interval + interval / (2.0 * mtbf) + RESTART_TIME / mtbf


def checkpoint_bytes(job: FDJob) -> float:
    """Size of one committed SCF checkpoint for ``job`` (bytes).

    Mirrors :data:`repro.dft.checkpoint.CHECKPOINT_FIELDS`: every band's
    interior (``job.n_grids`` wave functions) plus the density history
    and two potentials.
    """
    field = job.grid.bytes_per_point * math.prod(job.grid.shape)
    return float((job.n_grids + 3) * field)


@dataclass(frozen=True)
class ResilienceRow:
    """One MTBF point of the cadence sweep."""

    node_mtbf_years: float
    system_mtbf_hours: float  # node MTBF / node count
    checkpoint_time: float  # seconds per dump
    interval: float  # Daly-optimal seconds between dumps
    iterations_per_checkpoint: float  # SCF iterations between dumps
    overhead: float  # fraction of wall time lost
    efficiency: float  # 1 / (1 + overhead)
    failures_per_day: float


def mtbf_sweep(job: FDJob, n_cores: int = 16384) -> list[ResilienceRow]:
    """Daly cadence sweep for ``job`` at ``n_cores`` (paper scale).

    The wall time of one SCF iteration (so the sweep can report the
    cadence in iterations) is estimated as ~40 FD applications of the
    analytic model's best hybrid configuration — the paper's workload
    mix.
    """
    from repro.core.approaches import HYBRID_MULTIPLE
    from repro.core.perfmodel import PerformanceModel

    if n_cores < 4 or n_cores % 4:
        raise ValueError(f"n_cores must be a multiple of 4, got {n_cores}")
    n_nodes = n_cores // 4
    delta = checkpoint_bytes(job) / IO_BANDWIDTH
    fd = PerformanceModel().best_batch_size(job, HYBRID_MULTIPLE, n_cores)
    iteration_time = 40.0 * fd.total
    rows = []
    for years in NODE_MTBF_YEARS:
        node_mtbf = years * 365.25 * 24 * 3600
        system_mtbf = node_mtbf / n_nodes
        tau = optimal_checkpoint_interval(delta, system_mtbf)
        over = resilience_overhead(tau, delta, system_mtbf)
        rows.append(
            ResilienceRow(
                node_mtbf_years=years,
                system_mtbf_hours=system_mtbf / 3600.0,
                checkpoint_time=delta,
                interval=tau,
                iterations_per_checkpoint=tau / iteration_time,
                overhead=over,
                efficiency=1.0 / (1.0 + over),
                failures_per_day=86400.0 / system_mtbf,
            )
        )
    return rows


def format_mtbf_table(rows: list[ResilienceRow]) -> str:
    """The sweep as an aligned text table (benchmark-harness style)."""
    from repro.analysis.formatting import format_table

    return format_table(
        [
            "node MTBF (yr)",
            "system MTBF (h)",
            "dump (s)",
            "interval (s)",
            "iters/ckpt",
            "overhead",
            "efficiency",
            "fails/day",
        ],
        [
            [
                r.node_mtbf_years,
                r.system_mtbf_hours,
                r.checkpoint_time,
                r.interval,
                r.iterations_per_checkpoint,
                r.overhead,
                r.efficiency,
                r.failures_per_day,
            ]
            for r in rows
        ],
        title="Daly checkpoint cadence vs node MTBF",
    )
