"""Tests for band parallelization as the planner prices it.

Pins the compiled :class:`BandSchedulePlan` structure all three planes
execute (:meth:`Planner.band_plan`), the ``nb = 1`` plan-identity
reduction, the scaling escape in the planner's best row per band-group
count, and the model-vs-DES cross-validation (<= 5%).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    HYBRID_MULTIPLE,
    PartialGemm,
    PerformanceModel,
    Planner,
    ProblemSpec,
)
from repro.core.schedule import (
    OVERLAP_PHASE,
    RING_DIM,
    ROTATE_PHASE,
    PostRecv,
    PostSend,
    WaitAll,
    recv_sources,
)
from repro.core.simrun import simulate_band_plan
from repro.transport.errors import ring_tag

PAPER = ProblemSpec(shape=(192, 192, 192), n_grids=2816)


def best_per_nb(result):
    """``nb -> fastest choice`` over the planner's ranked choices."""
    best = {}
    for ch in result.choices:  # fastest first
        best.setdefault(ch.spec.layout.n_band_groups, ch)
    return dict(sorted(best.items()))


@pytest.fixture(scope="module")
def planner():
    return Planner()


@pytest.fixture(scope="module")
def rows(planner):
    """The paper-scale band sweep: best hybrid-multiple batch per nb."""
    return best_per_nb(
        planner.rank(PAPER, 16384, max_groups=8, approaches=["hybrid-multiple"])
    )


def hm_rejections(planner, problem, n_cores, max_groups):
    _, rejected = planner.enumerate(
        problem, n_cores, max_groups=max_groups, approaches=["hybrid-multiple"]
    )
    return {r.n_band_groups: r.reason for r in rejected}


class TestValidation:
    def test_groups_must_divide_grids(self, planner):
        problem = ProblemSpec(shape=(96, 96, 96), n_grids=7)
        reasons = hm_rejections(planner, problem, 64, max_groups=2)
        assert "band groups" in reasons[2]
        with pytest.raises(ValueError, match="band groups"):
            planner.band_plan(problem, 64, 2)

    def test_groups_must_divide_cores(self, planner):
        reasons = hm_rejections(planner, PAPER, 16384, max_groups=11)
        assert "divisible" in reasons[11]  # 2816 % 11 == 0, 16384 % 44 != 0

    def test_positive_args(self, planner):
        with pytest.raises(ValueError):
            planner.band_plan(PAPER, 0, 1)
        with pytest.raises(ValueError):
            planner.band_plan(PAPER, 16384, 0)


class TestReduction:
    def test_nb1_has_no_ring_traffic(self, rows):
        assert rows[1].subspace_ring == 0.0

    def test_nb1_fd_matches_hybrid_multiple(self, rows):
        """One band group IS the paper's hybrid-multiple configuration."""
        direct = PerformanceModel().best_batch_size(
            PAPER.fd_job(), HYBRID_MULTIPLE, 16384
        )
        assert rows[1].fd_time == direct.total
        assert rows[1].spec.layout.batch_size == direct.batch_size


class TestScalingEscape:
    def test_fd_time_drops_with_band_groups(self, rows):
        """Coarser domain decomposition per group => less FD communication
        and a smaller halo penalty — the constraint the paper's section IV
        imposes is exactly what band parallelization relaxes."""
        fds = [ch.fd_time for ch in rows.values()]
        assert fds == sorted(fds, reverse=True)

    def test_ring_comm_grows_with_groups(self, rows):
        rings = [ch.subspace_ring for ch in rows.values()]
        assert rings == sorted(rings)

    def test_ring_hides_under_gemm_for_moderate_groups(self, rows):
        """The ring exchange overlaps the partial GEMMs; for the paper's
        band-heavy job it stays fully hidden up to 8 groups."""
        for ch in rows.values():
            assert ch.subspace_time == ch.subspace_compute

    def test_total_improves_or_holds(self, rows):
        totals = [ch.predicted_time for ch in rows.values()]
        assert totals[-1] <= totals[0]

    def test_sweep_skips_infeasible_counts(self, planner):
        problem = ProblemSpec(shape=(96, 96, 96), n_grids=12)  # nb in {1,2,4}
        result = planner.rank(
            problem, 256, max_groups=8, approaches=["hybrid-multiple"]
        )
        assert list(best_per_nb(result)) == [1, 2, 4]
        # the other counts are typed rejections, not silently missing rows
        assert {r.n_band_groups for r in result.rejected} == {3, 5, 6, 7, 8}


class TestCompiledPlan:
    """Structure of the plan every plane walks."""

    def test_nb1_degenerates_to_one_gemm_per_phase(self, planner):
        plan = planner.band_plan(PAPER, 16384, 1)
        steps = plan.group_steps(0)
        assert [type(s).__name__ for s in steps] == ["PartialGemm"] * 2
        assert {s.phase for s in steps} == {OVERLAP_PHASE, ROTATE_PHASE}

    def test_nb1_fd_plan_is_the_hybrid_multiple_plan(self, rows):
        """Identity, not equivalence: same cache key, same object."""
        from repro.core.schedule import compile_schedule, timing_plan
        from repro.grid import Decomposition
        from repro.obs.critpath import plan_for_spec

        batch = rows[1].spec.layout.batch_size
        direct = compile_schedule(
            HYBRID_MULTIPLE,
            Decomposition(PAPER.grid(), HYBRID_MULTIPLE.domains_for(16384)),
            PAPER.n_grids,
            batch,
            n_workers=4,
        )
        plan = timing_plan(
            HYBRID_MULTIPLE, PAPER.grid(), PAPER.n_grids, 16384, batch
        )
        assert plan is direct
        assert plan_for_spec(rows[1].spec) is direct

    def test_step_counts_per_phase(self, planner):
        nb = 4
        plan = planner.band_plan(PAPER, 16384, nb)
        for phase in (OVERLAP_PHASE, ROTATE_PHASE):
            steps = plan.phase_steps(0, phase)
            kinds = [type(s) for s in steps]
            assert kinds.count(PartialGemm) == nb
            assert kinds.count(PostSend) == nb - 1
            assert kinds.count(PostRecv) == nb - 1
            assert kinds.count(WaitAll) == nb - 1
            exchanges = [s for s in steps if isinstance(s, (PostSend, PostRecv))]
            assert {s.dim for s in exchanges} == {RING_DIM}

    def test_group_steps_concatenates_the_phases(self, planner):
        plan = planner.band_plan(PAPER, 16384, 4)
        assert plan.group_steps(1) == (
            plan.phase_steps(1, OVERLAP_PHASE) + plan.phase_steps(1, ROTATE_PHASE)
        )
        assert plan.layout.group_of(16383) == 3

    def test_exchange_posted_before_the_gemm_it_hides_under(self, planner):
        plan = planner.band_plan(PAPER, 16384, 4)
        steps = plan.phase_steps(2, OVERLAP_PHASE)
        for i, st in enumerate(steps):
            if isinstance(st, PostSend):
                assert isinstance(steps[i + 1], PostRecv)
                assert isinstance(steps[i + 2], PartialGemm)
                assert isinstance(steps[i + 3], WaitAll)
                assert steps[i + 1].seq == steps[i + 3].seq == st.seq

    def test_gemm_sources_walk_the_ring(self, planner):
        nb = 4
        plan = planner.band_plan(PAPER, 16384, nb)
        for group in range(nb):
            srcs = [
                s.src_group
                for s in plan.phase_steps(group, OVERLAP_PHASE)
                if isinstance(s, PartialGemm)
            ]
            assert srcs == [(group - stage) % nb for stage in range(nb)]

    def test_ring_tags_distinct_across_phases_and_stages(self, planner):
        plan = planner.band_plan(PAPER, 16384, 4)
        sends = [s for s in plan.group_steps(0) if isinstance(s, PostSend)]
        recvs = [s for s in plan.group_steps(0) if isinstance(s, PostRecv)]
        tags = [s.tag for s in sends]
        assert len(tags) == len(set(tags)) == 6
        # a stage receives under the tag it sends under: the wire tags
        # are the ring's own, whatever step kind carries them
        assert [s.tag for s in recvs] == tags
        assert tags == [
            ring_tag(phase, stage)
            for phase in (OVERLAP_PHASE, ROTATE_PHASE)
            for stage in (1, 2, 3)
        ]


@st.composite
def _ring_layouts(draw):
    """``(n_bands, nb, n_cores)`` the planner accepts: ``nb`` divides the
    bands and whole hybrid nodes per group."""
    nb = draw(st.integers(1, 6))
    return (
        nb * draw(st.integers(1, 6)),
        nb,
        4 * nb * draw(st.integers(1, 8)),
    )


class TestExactRingCounts:
    """The ring plan's exchanges are counted, not estimated: the DES
    sends, the critical path resolves and the planner prices exactly the
    plan's ``PostSend`` steps."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(layout=_ring_layouts())
    def test_property_plan_counts_are_exact(self, planner, layout):
        n_bands, nb, n_cores = layout
        plan = planner.band_plan(ProblemSpec((16, 16, 16), n_bands), n_cores, nb)
        sends = [
            [s for s in plan.group_steps(g) if isinstance(s, PostSend)]
            for g in range(nb)
        ]
        assert sum(map(len, sends)) == simulate_band_plan(plan).messages
        sources = recv_sources(plan)
        for g in range(nb):
            assert len(sends[g]) == 2 * (nb - 1)
            if nb > 1:
                src = sources.pop((g, RING_DIM, +1))
                assert src == plan.layout.ring_recv_group(g)
        assert sources == {}
        ring = 0.0
        for s in sends[0]:
            ring += planner.machine.torus.message_time(s.nbytes, hops=1)
        assert planner._subspace_times(plan)[1] == ring


class TestModelVsDes:
    """The analytic walk and the DES replay price the same plans alike."""

    @pytest.mark.parametrize("nb", [1, 2, 4])
    def test_band_step_within_five_percent(self, planner, nb):
        small = ProblemSpec(shape=(48, 48, 48), n_grids=16)
        result = planner.rank(
            small, 32, max_groups=nb, approaches=["hybrid-multiple"]
        )
        choice = best_per_nb(result)[nb]
        assert planner.cross_check(choice) == pytest.approx(
            choice.predicted_time, rel=0.05
        )
