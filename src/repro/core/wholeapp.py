"""Whole-application extrapolation — the paper's "Further work" (§VIII-A).

The paper optimizes only the FD operation and closes with: "it is our
expectation that an overall performance gain as the one demonstrated in
this work may be obtained for the application overall."  This module
implements that extrapolation: a performance model of one full GPAW-style
SCF iteration, built from the same calibrated machine spec —

1. **Kohn-Sham FD step** — the paper's FD operation over all wave
   functions (delegates to :class:`~repro.core.perfmodel.PerformanceModel`).
2. **Subspace/overlap step** — the overlap matrix ``S = Psi^T Psi`` and the
   back-rotation: two GEMM-shaped kernels of ``2 G^2 p`` flops per core at
   near-peak rate, plus a ``G x G`` allreduce over the tree network.
   (This step is why every process must hold the same subset of every
   grid — section IV.)
3. **Density step** — ``sum_n f_n |psi_n|^2``: one streaming pass over all
   local wave-function blocks.
4. **Poisson step** — multigrid V-cycles on the density grid: stencil
   sweeps plus halo exchanges for a single grid (batching cannot help a
   single grid — exactly the regime the original code was written for).

Two scenarios per core count:

* ``amdahl`` — only the FD step uses the optimized hybrid schedule (what
  the paper actually built): the overall gain is diluted by the other
  phases;
* ``full`` — every phase adopts latency hiding and the hybrid
  decomposition (the "rewrite most of GPAW" scenario): communication of
  the overlap reduction and the Poisson halos overlaps with computation.

The model lets tests quantify the paper's closing conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.approaches import Approach, FLAT_ORIGINAL, HYBRID_MULTIPLE
from repro.core.perfmodel import FDJob, PerformanceModel
from repro.machine.spec import BGP_SPEC
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ScfPhaseTimes:
    """Seconds per phase of one SCF iteration (per node, wall-clock)."""

    fd: float
    subspace: float
    density: float
    poisson: float

    @property
    def total(self) -> float:
        return self.fd + self.subspace + self.density + self.poisson

    def fractions(self) -> dict[str, float]:
        t = self.total
        return {
            "fd": self.fd / t,
            "subspace": self.subspace / t,
            "density": self.density / t,
            "poisson": self.poisson / t,
        }


class WholeAppModel:
    """One full SCF iteration under a given programming approach."""

    #: fraction of peak flops a blocked GEMM reaches on the PPC450
    GEMM_EFFICIENCY = 0.8
    #: FD-operator applications per band per SCF iteration: GPAW's
    #: RMM-DIIS eigensolver applies H (and with it the stencil) to every
    #: band several times — residual, trial step, preconditioner sweeps
    FD_APPLICATIONS_PER_SCF = 8
    #: multigrid V-cycles per Poisson solve (typical for a warm start)
    POISSON_CYCLES = 8
    #: stencil sweeps per V-cycle across all levels (2 pre + 2 post on the
    #: fine level dominate; coarser levels add a geometric tail ~8/7)
    SWEEPS_PER_CYCLE = 5

    def __init__(self):
        self.spec = BGP_SPEC
        self.fd_model = PerformanceModel(BGP_SPEC)

    # -- phases ---------------------------------------------------------------
    def _fd_time(self, job: FDJob, approach: Approach, n_cores: int) -> float:
        timing = (
            self.fd_model.best_batch_size(job, approach, n_cores)
            if approach.supports_batching
            else self.fd_model.evaluate(job, approach, n_cores)
        )
        return timing.total

    def _subspace_time(
        self, job: FDJob, n_cores: int, overlapped: bool
    ) -> float:
        """Overlap matrix + rotation (GEMMs) + tree allreduce of S."""
        g = job.n_grids
        p = job.grid.n_points / n_cores  # points per core
        flops = 2 * 2 * g * g * p  # S build + rotation
        rate = self.spec.node.core.peak_flops * self.GEMM_EFFICIENCY
        compute = flops / rate
        n_nodes = max(1, n_cores // 4)
        reduce_bytes = g * g * self.spec.bytes_per_point
        comm = self.spec.tree.collective_time(reduce_bytes, n_nodes)
        # Overlapped: the allreduce proceeds while the rotation computes.
        return max(compute, comm) if overlapped else compute + comm

    def _density_time(self, job: FDJob, n_cores: int) -> float:
        """One streaming pass over all local wave-function blocks."""
        points = job.total_points / n_cores
        return points * self.spec.stencil_point_time * 0.5  # 2 flops/point

    def _poisson_time(self, approach: Approach, job: FDJob, n_cores: int) -> float:
        """Multigrid cycles on the single density grid.

        A single grid cannot be batched or double-buffered across grids —
        each sweep pays its halo exchange in line, like the original code.
        Hybrid multiple's whole-grids-to-threads distribution degenerates
        for one grid (three cores idle), so a hybrid rewrite would compute
        the density grid master-only style (four cores split the grid);
        the model substitutes accordingly.
        """
        from repro.core.approaches import HYBRID_MASTER_ONLY

        if approach is HYBRID_MULTIPLE:
            approach = HYBRID_MASTER_ONLY
        single = FDJob(job.grid, 1)
        sweeps = self.POISSON_CYCLES * self.SWEEPS_PER_CYCLE
        per_sweep = self._fd_time(single, approach, n_cores)
        return sweeps * per_sweep

    # -- scenarios --------------------------------------------------------------
    def evaluate(
        self, job: FDJob, approach: Approach, n_cores: int, overlapped_subspace: bool
    ) -> ScfPhaseTimes:
        """Phase times of one SCF iteration under one approach."""
        check_positive_int(n_cores, "n_cores")
        return ScfPhaseTimes(
            fd=self.FD_APPLICATIONS_PER_SCF * self._fd_time(job, approach, n_cores),
            subspace=self._subspace_time(job, n_cores, overlapped_subspace),
            density=self._density_time(job, n_cores),
            poisson=self._poisson_time(approach, job, n_cores),
        )

    def original(self, job: FDJob, n_cores: int) -> ScfPhaseTimes:
        """Everything as GPAW shipped it: flat original, no overlap."""
        return self.evaluate(job, FLAT_ORIGINAL, n_cores, overlapped_subspace=False)

    def amdahl(self, job: FDJob, n_cores: int) -> ScfPhaseTimes:
        """Only the FD step optimized (what the paper built)."""
        base = self.original(job, n_cores)
        fd = self.FD_APPLICATIONS_PER_SCF * self._fd_time(job, HYBRID_MULTIPLE, n_cores)
        return ScfPhaseTimes(
            fd=fd, subspace=base.subspace, density=base.density, poisson=base.poisson
        )

    def full(self, job: FDJob, n_cores: int) -> ScfPhaseTimes:
        """Every phase rewritten for hybrid + latency hiding (§VIII-A)."""
        return self.evaluate(job, HYBRID_MULTIPLE, n_cores, overlapped_subspace=True)

    def gains(self, job: FDJob, n_cores: int) -> dict[str, float]:
        """Speedups over the original whole application."""
        t0 = self.original(job, n_cores).total
        return {
            "fd_only": self.original(job, n_cores).fd
            / (self.FD_APPLICATIONS_PER_SCF * self._fd_time(job, HYBRID_MULTIPLE, n_cores)),
            "amdahl": t0 / self.amdahl(job, n_cores).total,
            "full": t0 / self.full(job, n_cores).total,
        }
