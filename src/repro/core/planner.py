"""Model-driven configuration selection: which configuration wins?

The paper's central question — approach x batch size x band groups at a
given core count (sections IV-VII) — answered by one component instead of
per-figure driver code.  The :class:`Planner` enumerates every feasible
candidate for a :class:`~repro.core.jobspec.ProblemSpec` at a core count,
prices each one by walking its *compiled* schedule plans — the FD
invocation through :class:`~repro.core.perfmodel.PerformanceModel`, the
ring orthogonalization (:meth:`Planner.band_plan`) at the node's GEMM
rate and the torus link — and returns the ranked :class:`PlanChoice`
list plus the reason every infeasible candidate was rejected — memory,
divisibility, whole-node constraints.

Band parallelization is the escape from the paper's scaling wall: the
section IV requirement that *every* process hold the same subset of
*every* grid forces the domain decomposition across all ranks and
shrinks blocks to slivers at 16 k cores.  Splitting the ranks into
``nb`` *band groups* (each holding ``G/nb`` wave functions on a
``P/nb``-core decomposition) grows blocks by ``nb^(1/3)`` per side and
cuts FD communication; only the orthogonalization talks across groups,
as a ring pass of band blocks through the torus.

This is the one place an SCF-relevant step is priced.  The ranking
metric is uniform across all candidates, so flat, hybrid and
band-parallel layouts compare on one axis:

    ``FD_APPLICATIONS_PER_SCF * fd + max(subspace_compute, subspace_ring)``

— the ring stages overlap the partial GEMMs, so the slower of the two
bounds the subspace step.  For ``nb = 1`` the ring plan degenerates to
two GEMMs and adds the same (candidate-independent) term to every
approach, so within a core count the argmin agrees with the per-figure
sweeps the repo already pins.

:meth:`Planner.cross_check` replays a choice's plans through the DES
(:func:`~repro.core.simrun.simulate_spec` + :func:`~repro.core.simrun
.simulate_band_plan`); tests hold it to the repo's existing <= 5%
model-vs-DES tolerance.  The replay shares one lowered program between
ranks of the same plan shape, so the cross-check is not limited to small
core counts — ``des_top_k`` is affordable at paper-scale group sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.approaches import (
    ALL_APPROACHES,
    HYBRID_MULTIPLE,
    Approach,
    approach_by_name,
)
from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec
from repro.core.memory import fd_memory_per_rank, memory_limit_per_rank
from repro.core.perfmodel import FDJob, PerformanceModel
from repro.core.schedule import (
    BandSchedulePlan,
    PartialGemm,
    PostSend,
    compile_band_schedule,
)
from repro.core.wholeapp import WholeAppModel
from repro.grid.bandgroups import BandGroups
from repro.grid.decompose import Decomposition
from repro.machine.spec import BGP_SPEC

__all__ = ["Candidate", "Rejection", "PlanChoice", "PlanResult", "Planner"]


def _scf_step(fd: float, subspace: float) -> float:
    """Seconds of one SCF-relevant step: the FD applications plus the
    exposed subspace step."""
    return fd * WholeAppModel.FD_APPLICATIONS_PER_SCF + subspace


@dataclass(frozen=True)
class Candidate:
    """One (approach, batch, band groups) configuration to price."""

    approach: str
    batch_size: int
    n_band_groups: int


@dataclass(frozen=True)
class Rejection:
    """Why a candidate family never reached the ranking."""

    approach: str
    n_band_groups: int
    reason: str


@dataclass
class PlanChoice:
    """One ranked feasible configuration with its predicted step time."""

    spec: JobSpec
    #: seconds of one SCF-relevant step (the ranking metric)
    predicted_time: float
    #: one FD invocation of the candidate's (per-group) job
    fd_time: float
    #: exposed subspace seconds: max(gemm, ring)
    subspace_time: float
    subspace_compute: float
    subspace_ring: float
    rank: int = 0
    #: DES replay of the same plans (filled by ``des_top_k``/``cross_check``)
    des_time: Optional[float] = None


@dataclass
class PlanResult:
    """Ranked feasible choices plus every rejection, for one problem."""

    problem: ProblemSpec
    n_cores: int
    choices: list[PlanChoice] = field(default_factory=list)
    rejected: list[Rejection] = field(default_factory=list)

    def best(self) -> PlanChoice:
        if not self.choices:
            raise ValueError(
                "no feasible configuration; rejections: "
                + "; ".join(f"{r.approach} nb={r.n_band_groups}: {r.reason}"
                            for r in self.rejected)
            )
        return self.choices[0]


class Planner:
    """Enumerate, price and rank configurations on a calibrated machine."""

    def __init__(self):
        self.machine = BGP_SPEC
        self.fd_model = PerformanceModel(BGP_SPEC)

    # -- enumeration -------------------------------------------------------
    def enumerate(
        self,
        problem: ProblemSpec,
        n_cores: int,
        max_groups: int = 8,
        approaches: Optional[Sequence[str]] = None,
    ) -> tuple[list[Candidate], list[Rejection]]:
        """All feasible candidates plus the rejections, in stable order.

        Band groups run over *every* integer ``2..max_groups`` (not just
        powers of two) and only apply to hybrid-multiple (the layout the
        band-parallel extension assumes); counts that don't divide the
        bands or the node grid come back as typed :class:`Rejection`\\ s
        rather than being silently skipped, so a sweep can report *why*
        e.g. ``nb=3`` lost to ``nb=4``.  Batch sizes come from
        :meth:`~repro.core.perfmodel.PerformanceModel.batch_candidates`,
        the same space ``best_batch_size`` searches.
        """
        names = list(approaches) if approaches else [a.name for a in ALL_APPROACHES]
        job = problem.fd_job()
        feasible: list[Candidate] = []
        rejected: list[Rejection] = []
        for name in names:
            a = approach_by_name(name)
            if a.is_hybrid and n_cores >= 4 and n_cores % 4:
                rejected.append(Rejection(
                    name, 1, f"hybrid modes need whole nodes, got {n_cores} cores"
                ))
                continue
            nb_values = [1]
            if name == "hybrid-multiple":
                nb_values.extend(range(2, max_groups + 1))
            for nb in nb_values:
                if nb > 1:
                    if problem.n_grids % nb:
                        rejected.append(Rejection(name, nb, (
                            f"n_grids ({problem.n_grids}) must be divisible "
                            f"by band groups ({nb})"
                        )))
                        continue
                    if n_cores % (4 * nb):
                        rejected.append(Rejection(name, nb, (
                            f"n_cores ({n_cores}) must be divisible by "
                            f"4 cores/node x {nb} band groups"
                        )))
                        continue
                group_cores = n_cores // nb
                group_job = FDJob(job.grid, job.n_grids // nb)
                reason = self._memory_rejection(group_job, a, group_cores)
                if reason:
                    rejected.append(Rejection(name, nb, reason))
                    continue
                for b in self.fd_model.batch_candidates(group_job, a, group_cores):
                    feasible.append(Candidate(name, b, nb))
        return feasible, rejected

    def _memory_rejection(
        self, group_job: FDJob, approach: Approach, group_cores: int
    ) -> Optional[str]:
        """Why one band group's working set cannot run, ``None`` if it fits.

        A layout the decomposition cannot express (a split finer than the
        grid, a hybrid approach on a partial node) is a rejection too,
        never an exception.
        """
        try:
            need = fd_memory_per_rank(group_job, approach, group_cores, self.machine)
            limit = memory_limit_per_rank(approach, group_cores, self.machine)
        except ValueError as exc:
            return str(exc)
        if need > limit:
            return (
                f"working set {need / 2**20:.0f} MiB/rank exceeds "
                f"the {limit / 2**20:.0f} MiB per-rank memory"
            )
        return None

    # -- pricing -----------------------------------------------------------
    def band_plan(
        self, problem: ProblemSpec, n_cores: int, nb: int
    ) -> BandSchedulePlan:
        """The compiled ring-orthogonalization plan of ``nb`` band groups.

        Every plane runs this plan: the pricing below walks it, the DES
        replays it (:func:`~repro.core.simrun.simulate_band_plan`) and
        the functional executor interprets it.  The GEMM inner dimension
        per core is its share of the grid points, times ``nb`` because
        the 2D layout gives every core ``nb`` x more points of each wave
        function it holds.  On whole nodes the ring ships one domain's
        block of the group's band set under the hybrid-multiple
        decomposition; ``nb = 1`` on partial nodes (small flat runs)
        degenerates to the two-GEMM plan with no ring steps.
        """
        grid = problem.grid()
        layout = BandGroups(n_ranks=n_cores, n_bands=problem.n_grids, n_groups=nb)
        gemm_points = max(1, round(grid.n_points * nb / n_cores))
        ring_points = gemm_points
        if n_cores >= 4 and n_cores % (4 * nb) == 0:
            ring_points = Decomposition(
                grid, HYBRID_MULTIPLE.domains_for(n_cores // nb)
            ).max_block_points()
        return compile_band_schedule(
            layout, gemm_points, ring_points, grid.bytes_per_point
        )

    def _subspace_times(self, plan: BandSchedulePlan) -> tuple[float, float]:
        """``(compute, ring)`` seconds of one group's compiled step list.

        Every :class:`PartialGemm` is priced at the node's GEMM rate,
        every ring :class:`PostSend` at the torus link (one hop to the
        neighbouring group's partition).
        """
        rate = self.machine.node.core.peak_flops * WholeAppModel.GEMM_EFFICIENCY
        compute = 0.0
        ring = 0.0
        for st in plan.group_steps(0):
            if isinstance(st, PartialGemm):
                compute += st.flops / rate
            elif isinstance(st, PostSend):
                ring += self.machine.torus.message_time(st.nbytes, hops=1)
        return compute, ring

    def evaluate(
        self, problem: ProblemSpec, n_cores: int, candidate: Candidate
    ) -> PlanChoice:
        """Price one candidate: compiled FD plan + compiled ring plan."""
        nb = candidate.n_band_groups
        a = approach_by_name(candidate.approach)
        spec = JobSpec(
            problem=problem,
            layout=LayoutSpec(
                approach=candidate.approach,
                n_cores=n_cores,
                batch_size=candidate.batch_size,
                n_band_groups=nb,
            ),
        )
        fd = self.fd_model.evaluate(
            spec.group_job(), a, spec.group_cores, candidate.batch_size
        )
        compute, ring = self._subspace_times(self.band_plan(problem, n_cores, nb))
        subspace = max(compute, ring)
        return PlanChoice(
            spec=spec,
            predicted_time=_scf_step(fd.total, subspace),
            fd_time=fd.total,
            subspace_time=subspace,
            subspace_compute=compute,
            subspace_ring=ring,
        )

    # -- ranking -----------------------------------------------------------
    def rank(
        self,
        problem: ProblemSpec,
        n_cores: int,
        max_groups: int = 8,
        approaches: Optional[Sequence[str]] = None,
        des_top_k: int = 0,
    ) -> PlanResult:
        """Enumerate, price and sort every candidate (fastest first).

        A candidate whose plan compilation fails (e.g. a decomposition
        finer than the grid) turns into a rejection rather than an error.
        ``des_top_k > 0`` additionally replays the top-k choices through
        the DES and records their ``des_time``.  The table-driven replay
        (:mod:`repro.core.simrun`) keeps exact cross-checks tractable well
        past a thousand ranks — seconds per choice at paper-scale group
        sizes, not hours.
        """
        candidates, rejected = self.enumerate(
            problem, n_cores, max_groups=max_groups, approaches=approaches
        )
        choices: list[PlanChoice] = []
        for c in candidates:
            try:
                choices.append(self.evaluate(problem, n_cores, c))
            except ValueError as exc:
                rejected.append(Rejection(c.approach, c.n_band_groups, str(exc)))
        choices.sort(key=lambda ch: ch.predicted_time)
        for i, ch in enumerate(choices):
            ch.rank = i + 1
        for ch in choices[:des_top_k]:
            ch.des_time = self.cross_check(ch)
        return PlanResult(
            problem=problem, n_cores=n_cores, choices=choices, rejected=rejected
        )

    # -- degradation (recovery replanning) ---------------------------------
    def degrade(self, spec: JobSpec, n_cores: int) -> PlanResult:
        """Feasible re-plans of a running ``spec`` on ``n_cores`` survivors.

        The recovery controller's question after a fatal failure: with
        fewer ranks, which (batch, band-group) layout should the run
        resume on?  Unlike :meth:`enumerate` this applies *functional-
        plane* rules — the approach is kept, whole-node constraints do
        not apply (rank threads, not BG/P nodes), and any ``nb'`` that
        divides both the grids and the surviving cores is a candidate
        (``nb' <= nb``: the checkpoint regroup path shrinks the group
        count).  Every choice carries the spec's runtime
        section verbatim, so the winner rebuilds the run directly;
        infeasible layouts come back as typed :class:`Rejection`\\ s.
        """
        from dataclasses import replace

        if n_cores < 1:
            return PlanResult(
                problem=spec.problem,
                n_cores=n_cores,
                rejected=[Rejection(
                    spec.layout.approach, spec.layout.n_band_groups,
                    f"no surviving cores ({n_cores})",
                )],
            )
        problem = spec.problem
        a = approach_by_name(spec.layout.approach)
        job = problem.fd_job()
        choices: list[PlanChoice] = []
        rejected: list[Rejection] = []
        for nb in range(min(spec.layout.n_band_groups, n_cores), 0, -1):
            if problem.n_grids % nb:
                rejected.append(Rejection(a.name, nb, (
                    f"n_grids ({problem.n_grids}) must be divisible by "
                    f"band groups ({nb})"
                )))
                continue
            if n_cores % nb:
                rejected.append(Rejection(a.name, nb, (
                    f"n_cores ({n_cores}) must be divisible by "
                    f"band groups ({nb})"
                )))
                continue
            group_cores = n_cores // nb
            group_job = FDJob(job.grid, job.n_grids // nb)
            reason = self._memory_rejection(group_job, a, group_cores)
            if reason:
                rejected.append(Rejection(a.name, nb, reason))
                continue
            try:
                batches = self.fd_model.batch_candidates(group_job, a, group_cores)
            except ValueError as exc:
                rejected.append(Rejection(a.name, nb, str(exc)))
                continue
            for b in batches:
                try:
                    choices.append(
                        self.evaluate(problem, n_cores, Candidate(a.name, b, nb))
                    )
                except ValueError as exc:
                    rejected.append(Rejection(a.name, nb, str(exc)))
                    break  # the whole nb family shares the failure
        for ch in choices:
            ch.spec = replace(ch.spec, runtime=spec.runtime)
        choices.sort(key=lambda ch: ch.predicted_time)
        for i, ch in enumerate(choices):
            ch.rank = i + 1
        return PlanResult(
            problem=problem, n_cores=n_cores, choices=choices, rejected=rejected
        )

    # -- DES cross-check ---------------------------------------------------
    def cross_check(self, choice: PlanChoice) -> float:
        """DES seconds of the choice's SCF-relevant step.

        Replays the *same* compiled plans the analytic pricing walked:
        one group's FD invocation through :func:`simulate_spec` and the
        ring plan through :func:`simulate_band_plan`, combined with the
        same step formula.  Thousand-rank groups cross-check in seconds.
        """
        from repro.core.simrun import simulate_band_plan, simulate_spec

        spec = choice.spec
        fd = simulate_spec(spec, spec=self.machine)
        band = simulate_band_plan(
            self.band_plan(spec.problem, spec.layout.n_cores,
                           spec.layout.n_band_groups),
            spec=self.machine,
        )
        return _scf_step(fd.total, band.total)
