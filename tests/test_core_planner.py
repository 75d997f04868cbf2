"""Planner: enumeration, pricing, ranking, and cross-plane agreement.

The load-bearing claims:

* the planner's prices agree, row for row and bit for bit, with a
  by-hand sweep over every approach/batch/band-group count — the FD
  invocation through ``PerformanceModel.evaluate`` and the ring plan's
  steps walked at the GEMM rate and the torus link — on several
  problems, and its argmin with the exhaustive
  per-figure sweeps the repo already pins (``best_batch_size``);
* infeasible candidates come back as typed rejections (whole-node,
  divisibility, memory) rather than silently missing rows;
* the DES cross-check of the top choices stays inside the repo's
  existing <= 5% model-vs-DES tolerance at small core counts;
* every ranked choice is a valid, round-trippable ``JobSpec`` whose
  price is the one step formula (a property test over random problems).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approaches import ALL_APPROACHES, approach_by_name
from repro.core.jobspec import JobSpec, ProblemSpec
from repro.core.perfmodel import PerformanceModel
from repro.core.planner import Planner
from repro.core.schedule import PartialGemm, PostSend
from repro.core.wholeapp import WholeAppModel
from repro.machine.spec import BGP_SPEC

#: machine x problems for the agreement sweep.  The planner prices the
#: shipped calibration only, so the rows vary the problem and core count
COMBOS = [
    (BGP_SPEC, ProblemSpec(shape=(48, 48, 48), n_grids=16), 32),
    (BGP_SPEC, ProblemSpec(shape=(64, 64, 64), n_grids=32), 64),
    (BGP_SPEC, ProblemSpec(shape=(96, 96, 96), n_grids=64), 128),
]


def brute_force(machine, problem, n_cores, max_groups=8):
    """The pre-planner way: ``{(approach, batch, nb): step seconds}``.

    Sweeps every approach, band-group count and batch by hand, pricing
    the FD invocation with ``PerformanceModel`` and walking the ring
    plan's steps directly.
    """
    fd_model = PerformanceModel(machine)
    planner = Planner()
    rate = machine.node.core.peak_flops * WholeAppModel.GEMM_EFFICIENCY
    job = problem.fd_job()
    steps = {}
    for a in ALL_APPROACHES:
        if a.is_hybrid and n_cores >= 4 and n_cores % 4:
            continue
        nb_values = [1]
        if a.name == "hybrid-multiple":
            nb_values += [
                nb for nb in range(2, max_groups + 1)
                if job.n_grids % nb == 0 and n_cores % (4 * nb) == 0
            ]
        for nb in nb_values:
            plan = planner.band_plan(problem, n_cores, nb)
            gemm = sum(s.flops / rate for s in plan.group_steps(0)
                       if isinstance(s, PartialGemm))
            ring = sum(machine.torus.message_time(s.nbytes, hops=1)
                       for s in plan.group_steps(0)
                       if isinstance(s, PostSend))
            group_cores = n_cores // nb
            group_job = type(job)(job.grid, job.n_grids // nb)
            for b in fd_model.batch_candidates(group_job, a, group_cores):
                fd = fd_model.evaluate(group_job, a, group_cores, b)
                steps[(a.name, b, nb)] = fd.total * 8 + max(gemm, ring)
    return steps


def brute_force_best(machine, problem, n_cores, max_groups=8):
    steps = brute_force(machine, problem, n_cores, max_groups)
    key = min(steps, key=steps.get)
    return steps[key], key


class TestSweepAgreement:
    @pytest.mark.parametrize("machine,problem,n_cores", COMBOS)
    def test_best_matches_brute_force(self, machine, problem, n_cores):
        choice = Planner().rank(problem, n_cores).best()
        step, (name, batch, nb) = brute_force_best(machine, problem, n_cores)
        lay = choice.spec.layout
        assert (lay.approach, lay.batch_size, lay.n_band_groups) == (
            name, batch, nb
        )
        assert choice.predicted_time == pytest.approx(step, rel=1e-12)

    @pytest.mark.parametrize("machine,problem,n_cores", COMBOS)
    def test_per_approach_batch_matches_best_batch_size(
        self, machine, problem, n_cores
    ):
        """Within nb=1 rows, the planner's best batch per approach is
        exactly ``best_batch_size``'s (same candidate space, same model)."""
        fd_model = PerformanceModel(machine)
        result = Planner().rank(problem, n_cores)
        job = problem.fd_job()
        for a in ALL_APPROACHES:
            rows = [
                ch for ch in result.choices
                if ch.spec.layout.approach == a.name
                and ch.spec.layout.n_band_groups == 1
            ]
            if not rows:
                continue
            planner_best = min(rows, key=lambda ch: ch.predicted_time)
            sweep_best = fd_model.best_batch_size(job, a, n_cores)
            assert planner_best.spec.layout.batch_size == sweep_best.batch_size
            assert planner_best.fd_time == pytest.approx(
                sweep_best.total, rel=1e-12
            )

    @pytest.mark.parametrize("machine,problem,n_cores", COMBOS)
    def test_every_row_matches_brute_force(self, machine, problem, n_cores):
        """Every ranked row — band-parallel ones included — is priced
        exactly as the by-hand sweep prices the same configuration."""
        result = Planner().rank(problem, n_cores)
        steps = brute_force(machine, problem, n_cores)
        assert len(result.choices) == len(steps)
        for ch in result.choices:
            lay = ch.spec.layout
            key = (lay.approach, lay.batch_size, lay.n_band_groups)
            assert ch.predicted_time == steps[key]

    def test_paper_scale_best_is_banded(self):
        """At 16384 cores the 2D decomposition wins, out of a candidate
        space whose size is pinned (what `repro plan --cores 16384`
        enumerates)."""
        problem = ProblemSpec(shape=(192, 192, 192), n_grids=2816)
        result = Planner().rank(problem, 16384)
        assert (len(result.choices), len(result.rejected)) == (59, 4)
        choice = result.best()
        step, (name, batch, nb) = brute_force_best(BGP_SPEC, problem, 16384)
        lay = choice.spec.layout
        assert (lay.approach, lay.batch_size, lay.n_band_groups) == (
            name, batch, nb
        )
        assert lay.approach == "hybrid-multiple" and lay.n_band_groups > 1
        assert choice.predicted_time == step


class TestRejections:
    def test_partial_node_rejects_hybrid(self):
        problem = ProblemSpec(shape=(24, 24, 24), n_grids=8)
        result = Planner().rank(problem, 6)
        assert all(
            not approach_by_name(ch.spec.layout.approach).is_hybrid
            for ch in result.choices
        )
        reasons = {
            (r.approach, r.reason.split(",")[0]) for r in result.rejected
        }
        assert any("whole nodes" in r for _, r in reasons)

    def test_band_group_divisibility_rejections(self):
        problem = ProblemSpec(shape=(24, 24, 24), n_grids=6)
        result = Planner().rank(problem, 12, max_groups=4)
        by_nb = {r.n_band_groups: r.reason for r in result.rejected
                 if r.approach == "hybrid-multiple"}
        assert 2 in by_nb and "divisible" in by_nb[2]  # 12 % (4*2) != 0
        assert 4 in by_nb and "divisible" in by_nb[4]  # 6 grids % 4 != 0

    def test_non_power_of_two_band_groups_enumerated(self):
        """nb=3 is a first-class candidate when the divisions work out."""
        problem = ProblemSpec(shape=(24, 24, 24), n_grids=12)
        result = Planner().rank(problem, 48, max_groups=6)
        nb_seen = {
            ch.spec.layout.n_band_groups
            for ch in result.choices
            if ch.spec.layout.approach == "hybrid-multiple"
        }
        # 12 grids and 48 cores: nb=3 divides both (48 % (4*3) == 0), and
        # nb=6 divides the grids but not the node grid (48 % 24 == 0) — so
        # 6 is feasible too; 5 must come back as a typed rejection
        assert 3 in nb_seen
        by_nb = {r.n_band_groups: r.reason for r in result.rejected
                 if r.approach == "hybrid-multiple"}
        assert 5 in by_nb and "divisible" in by_nb[5]

    def test_non_power_of_two_infeasible_is_typed_rejection(self):
        """Every enumerated nb is either priced or rejected, never dropped."""
        problem = ProblemSpec(shape=(24, 24, 24), n_grids=8)
        result = Planner().rank(problem, 32, max_groups=5)
        hm = [ch.spec.layout.n_band_groups for ch in result.choices
              if ch.spec.layout.approach == "hybrid-multiple"]
        rej = [r.n_band_groups for r in result.rejected
               if r.approach == "hybrid-multiple"]
        assert set(hm) | set(rej) >= {2, 3, 4, 5}

    def test_memory_rejection_reported(self):
        # 2816 grids of 192^3 cannot fit on a handful of VN-mode ranks
        problem = ProblemSpec(shape=(192, 192, 192), n_grids=2816)
        result = Planner().rank(problem, 8, approaches=["flat-optimized"])
        assert not result.choices
        assert any("memory" in r.reason for r in result.rejected)
        with pytest.raises(ValueError, match="no feasible configuration"):
            result.best()

    def test_every_candidate_accounted_for(self):
        """choices + rejections cover the full enumeration grid."""
        problem = ProblemSpec(shape=(24, 24, 24), n_grids=8)
        planner = Planner()
        candidates, rejected = planner.enumerate(problem, 32)
        result = planner.rank(problem, 32)
        assert len(result.choices) == len(candidates)
        assert len(result.rejected) == len(rejected)


class TestDesCrossCheck:
    def test_top_choices_within_tolerance(self):
        """The model-vs-DES gate of test_core_bandpar: <= 5% @ 32 cores."""
        problem = ProblemSpec(shape=(48, 48, 48), n_grids=16)
        result = Planner().rank(problem, 32, des_top_k=3)
        checked = [ch for ch in result.choices if ch.des_time is not None]
        assert len(checked) == 3
        for ch in checked:
            assert ch.predicted_time / ch.des_time == pytest.approx(1.0, abs=0.05)
        # uncross-checked rows stay None
        assert all(ch.des_time is None for ch in result.choices[3:])

    def test_cross_check_matches_direct_des(self):
        from repro.core.simrun import simulate_band_plan, simulate_spec

        problem = ProblemSpec(shape=(48, 48, 48), n_grids=16)
        planner = Planner()
        choice = planner.rank(problem, 32).best()
        des = planner.cross_check(choice)
        spec = choice.spec
        fd = simulate_spec(spec)
        band = simulate_band_plan(
            planner.band_plan(problem, 32, spec.layout.n_band_groups)
        )
        assert des == pytest.approx(fd.total * 8 + band.total, rel=1e-12)


class TestDegrade:
    """Recovery replanning: functional-plane rules on the survivors."""

    def spec(self, n_cores=16, nb=4, n_grids=16, approach="flat-optimized"):
        from repro.core.jobspec import JobSpec, LayoutSpec, RuntimeSpec

        return JobSpec(
            problem=ProblemSpec(shape=(24, 24, 24), n_grids=n_grids),
            layout=LayoutSpec(
                approach=approach, n_cores=n_cores, n_band_groups=nb
            ),
            runtime=RuntimeSpec(tolerance=1e-5, seed=3, eig_tol=1e-8),
        )

    def test_choices_keep_approach_and_runtime(self):
        spec = self.spec()
        result = Planner().degrade(spec, 12)
        assert result.choices
        for ch in result.choices:
            assert ch.spec.layout.approach == "flat-optimized"
            assert ch.spec.layout.n_cores == 12
            # the runtime section rides along verbatim, so the winner
            # rebuilds the run (eig_tol, tolerance, seed and all)
            assert ch.spec.runtime == spec.runtime
        best = result.best()
        assert best.rank == 1
        assert best.predicted_time <= result.choices[-1].predicted_time

    def test_group_count_never_grows(self):
        # nb' <= nb: the checkpoint regroup path shrinks group counts
        result = Planner().degrade(self.spec(nb=2), 12)
        assert result.choices
        assert all(
            ch.spec.layout.n_band_groups <= 2 for ch in result.choices
        )

    def test_partial_survivor_counts_allowed(self):
        # unlike enumerate(): rank threads, not BG/P nodes — 13 of 16
        # survivors is a valid degraded layout (at nb = 1)
        result = Planner().degrade(self.spec(), 13)
        assert result.choices
        assert all(ch.spec.layout.n_cores == 13 for ch in result.choices)
        assert all(
            ch.spec.layout.n_band_groups == 1 for ch in result.choices
        )

    def test_indivisible_groups_rejected_with_reason(self):
        # 13 cores: nb in {2, 4} cannot divide them; typed rejections
        result = Planner().degrade(self.spec(), 13)
        reasons = {
            (r.n_band_groups, r.reason.split(" ")[0]) for r in result.rejected
        }
        assert (4, "n_cores") in reasons
        assert (2, "n_cores") in reasons

    def test_band_indivisible_grids_rejected(self):
        # 16 grids on nb=3: n_grids % 3 != 0 -> rejection, not a crash
        result = Planner().degrade(self.spec(), 12)
        assert any(
            r.n_band_groups == 3 and "n_grids" in r.reason
            for r in result.rejected
        )

    def test_hybrid_partial_nodes_rejected_not_raised(self):
        # a hybrid spec keeps its whole-node pricing constraint; on 13
        # survivors that is a typed rejection, never an exception
        spec = self.spec(approach="hybrid-multiple", nb=1)
        result = Planner().degrade(spec, 13)
        assert not result.choices
        assert any("whole nodes" in r.reason for r in result.rejected)

    def test_no_survivors_is_a_rejection_not_an_error(self):
        result = Planner().degrade(self.spec(), 0)
        assert not result.choices
        assert result.rejected
        assert "no surviving cores" in result.rejected[0].reason

    def test_nb_capped_by_core_count(self):
        # 2 survivors cannot host 4 groups
        result = Planner().degrade(self.spec(), 2)
        assert result.choices
        assert all(
            ch.spec.layout.n_band_groups <= 2 for ch in result.choices
        )


class TestRankProperties:
    """The planner never returns a spec that ``JobSpec`` validation
    rejects, and every row is priced by the one step formula."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([16, 24, 48]),
        n_grids=st.integers(1, 64),
        n_cores=st.integers(1, 128),
        max_groups=st.integers(1, 8),
    )
    def test_rank_rows_are_valid_and_consistently_priced(
        self, n, n_grids, n_cores, max_groups
    ):
        problem = ProblemSpec(shape=(n, n, n), n_grids=n_grids)
        planner = Planner()
        candidates, rejected = planner.enumerate(
            problem, n_cores, max_groups=max_groups
        )
        result = planner.rank(problem, n_cores, max_groups=max_groups)
        assert len(result.choices) + len(result.rejected) == (
            len(candidates) + len(rejected)
        )
        assert [ch.rank for ch in result.choices] == list(
            range(1, len(result.choices) + 1)
        )
        times = [ch.predicted_time for ch in result.choices]
        assert times == sorted(times)
        for ch in result.choices:
            again = JobSpec.from_dict(ch.spec.to_dict())
            assert again == ch.spec
            assert again.config_hash() == ch.spec.config_hash()
            assert ch.predicted_time == (
                WholeAppModel.FD_APPLICATIONS_PER_SCF * ch.fd_time
                + max(ch.subspace_compute, ch.subspace_ring)
            )
