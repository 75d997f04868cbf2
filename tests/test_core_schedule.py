"""The schedule IR: one compiled plan, three consistent consumers.

The cross-plane consistency class is the check that did not exist before
the schedule compiler: the functional interpreter, the DES replay and the
analytic model must all see the *same* compiled plan — same message
counts, same barrier counts — for every approach over a grid of
configurations.
"""

import numpy as np
import pytest

from repro.core import (
    ALL_APPROACHES,
    DistributedStencil,
    FDJob,
    FLAT_OPTIMIZED,
    FLAT_ORIGINAL,
    HYBRID_MASTER_ONLY,
    PerformanceModel,
    SequentialStencil,
    clear_plan_cache,
    compile_schedule,
    plan_cache_stats,
    simulate_fd,
    timing_plan,
)
from repro.core.approaches import FLAT_SUBGROUPS
from repro.core.schedule import (
    GridBarrier,
    PostRecv,
    PostSend,
    WaitAll,
)
from repro.grid import Decomposition, GridDescriptor, HaloSpec, gather, scatter
from repro.obs.export import ascii_gantt
from repro.obs.spans import SpanTracer, engine_hook
from repro.stencil import laplacian_coefficients
from repro.transport import InprocTransport, run_ranks

EVERY_APPROACH = ALL_APPROACHES + (FLAT_SUBGROUPS,)

#: (n_cores, n_grids, batch_size) grid for the consistency sweep
CONFIGS = [(4, 4, 1), (8, 6, 1), (8, 8, 2)]


def _batch_for(approach, batch_size):
    return batch_size if approach.supports_batching else 1


def _compile(approach, n_cores, n_grids, batch_size, shape=(24, 24, 24)):
    gd = GridDescriptor(shape)
    plan = timing_plan(approach, gd, n_grids, n_cores, batch_size)
    return gd, plan.decomp, plan


class TestCrossPlaneConsistency:
    """All three planes must agree with the compiled plan's accounting."""

    @pytest.mark.parametrize("approach", EVERY_APPROACH, ids=lambda a: a.name)
    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_plan_summary_matches_materialized_steps(self, approach, config):
        n_cores, n_grids, batch = config
        batch = _batch_for(approach, batch)
        _, decomp, plan = _compile(approach, n_cores, n_grids, batch)
        posted = 0
        barriers = 0
        for d in range(decomp.n_domains):
            rp = plan.rank_plan(d)
            sends = sum(
                1 for w in rp.workers for s in w.steps if isinstance(s, PostSend)
            )
            assert sends == rp.message_count == plan.message_count(d)
            posted += sends
            barriers = rp.barrier_count
            assert barriers == plan.grid_barriers_per_rank
        assert posted == plan.total_messages()

    @pytest.mark.parametrize("approach", EVERY_APPROACH, ids=lambda a: a.name)
    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_des_replay_sends_the_planned_messages(self, approach, config):
        n_cores, n_grids, batch = config
        batch = _batch_for(approach, batch)
        gd, _, plan = _compile(approach, n_cores, n_grids, batch)
        result = simulate_fd(FDJob(gd, n_grids), approach, n_cores, batch)
        assert result.messages == plan.total_messages()

    @pytest.mark.parametrize("approach", EVERY_APPROACH, ids=lambda a: a.name)
    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_model_counts_the_planned_messages(self, approach, config):
        n_cores, n_grids, batch = config
        batch = _batch_for(approach, batch)
        gd, _, plan = _compile(approach, n_cores, n_grids, batch)
        timing = PerformanceModel().evaluate(
            FDJob(gd, n_grids), approach, n_cores, batch
        )
        rep = plan.rank_plan(0).workers[0]
        threads = min(4, n_cores) if plan.uses_thread_team else 1
        assert timing.messages_per_rank == rep.message_count * threads

    @pytest.mark.parametrize(
        "approach", ALL_APPROACHES, ids=lambda a: a.name
    )
    def test_functional_engine_shares_the_timing_planes_plan(self, approach):
        """At full nodes the engine compiles to the *same cached object*."""
        n_cores, n_grids, batch = 8, 4, _batch_for(approach, 2)
        gd, decomp, plan = _compile(approach, n_cores, n_grids, batch)
        engine = DistributedStencil(decomp, laplacian_coefficients(2, gd.spacing))
        assert engine.plan_for(approach, n_grids, batch) is plan

    @pytest.mark.parametrize("approach", EVERY_APPROACH, ids=lambda a: a.name)
    def test_functional_run_sends_the_planned_messages(self, approach):
        n_grids, batch = 4, _batch_for(approach, 2)
        gd = GridDescriptor((12, 12, 12))
        decomp = Decomposition(gd, approach.domains_for(8))
        n_ranks = decomp.n_domains
        coeffs = laplacian_coefficients(2, spacing=gd.spacing)
        engine = DistributedStencil(decomp, coeffs)
        halo = HaloSpec(2)
        arrays = {g: gd.random(seed=g) for g in range(n_grids)}
        blocks = {g: scatter(a, decomp, halo) for g, a in arrays.items()}
        transport = InprocTransport(n_ranks)

        def rank_fn(ep):
            mine = {g: blocks[g][ep.rank] for g in arrays}
            return engine.apply(ep, mine, approach=approach, batch_size=batch)

        run_ranks(n_ranks, rank_fn, transport=transport)
        plan = engine.plan_for(approach, n_grids, batch)
        sent = sum(st.messages for st in transport.stats)
        assert sent == plan.total_messages()


class TestBatchValidation:
    """One helper on Approach; one error text across all consumers."""

    def test_error_message(self):
        with pytest.raises(ValueError, match="flat-original does not support batching"):
            FLAT_ORIGINAL.validate_batch_size(2)

    def test_non_positive(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            FLAT_OPTIMIZED.validate_batch_size(0)

    def test_valid_passes_through(self):
        assert FLAT_OPTIMIZED.validate_batch_size(4) == 4
        assert FLAT_ORIGINAL.validate_batch_size(1) == 1

    def test_all_consumers_raise_the_same_text(self):
        gd = GridDescriptor((12, 12, 12))
        match = "flat-original does not support batching"
        with pytest.raises(ValueError, match=match):
            compile_schedule(FLAT_ORIGINAL, Decomposition(gd, 4), 4, 2)
        with pytest.raises(ValueError, match=match):
            simulate_fd(FDJob(gd, 4), FLAT_ORIGINAL, 4, batch_size=2)
        with pytest.raises(ValueError, match=match):
            PerformanceModel().evaluate(FDJob(gd, 4), FLAT_ORIGINAL, 4, 2)


class TestPlanCache:
    def test_identical_configs_share_one_plan(self):
        clear_plan_cache()
        gd = GridDescriptor((24, 24, 24))
        a = compile_schedule(FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 2)
        b = compile_schedule(FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 2)
        assert a is b
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["size"] == 1

    def test_different_configs_do_not_collide(self):
        gd = GridDescriptor((24, 24, 24))
        a = compile_schedule(FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 2)
        b = compile_schedule(FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 1)
        assert a is not b

    def test_clear(self):
        gd = GridDescriptor((24, 24, 24))
        compile_schedule(FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 2)
        clear_plan_cache()
        stats = plan_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "size": 0}

    def test_use_cache_false_bypasses(self):
        gd = GridDescriptor((24, 24, 24))
        a = compile_schedule(
            FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 2, use_cache=False
        )
        b = compile_schedule(
            FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 2, use_cache=False
        )
        assert a is not b


class TestScheduleStructure:
    """The IR must encode the paper's schedules, not just any valid order."""

    def test_double_buffering_posts_ahead_of_drain(self):
        gd = GridDescriptor((24, 24, 24))
        plan = compile_schedule(FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 1)
        steps = plan.rank_plan(0).workers[0].steps
        first_post_seq1 = next(
            i for i, s in enumerate(steps)
            if isinstance(s, PostSend) and s.seq == 1
        )
        first_wait = next(
            i for i, s in enumerate(steps) if isinstance(s, WaitAll)
        )
        assert first_post_seq1 < first_wait, "round 1 must be in flight before round 0 drains"

    def test_blocking_waits_after_every_receive(self):
        gd = GridDescriptor((24, 24, 24))
        plan = compile_schedule(FLAT_ORIGINAL, Decomposition(gd, 8), 2, 1)
        steps = plan.rank_plan(0).workers[0].steps
        for i, s in enumerate(steps):
            if isinstance(s, PostRecv):
                assert isinstance(steps[i + 1], WaitAll)

    def test_master_only_barrier_after_every_grid(self):
        gd = GridDescriptor((24, 24, 24))
        plan = compile_schedule(HYBRID_MASTER_ONLY, Decomposition(gd, 2), 3, 1)
        steps = plan.rank_plan(0).workers[0].steps
        barriers = [s for s in steps if isinstance(s, GridBarrier)]
        assert [b.grid_id for b in barriers] == [0, 1, 2]
        assert plan.grid_barriers_per_rank == 3

    def test_describe_is_human_readable(self):
        gd = GridDescriptor((24, 24, 24))
        plan = compile_schedule(FLAT_OPTIMIZED, Decomposition(gd, 8), 4, 2)
        text = plan.describe(0)
        for token in ("PostSend", "PostRecv", "WaitAll", "ComputeInterior"):
            assert token in text


class TestTracerHook:
    """A real functional run emits the same kind of Gantt trace as the DES."""

    def test_functional_run_fills_a_tracer(self):
        gd = GridDescriptor((12, 12, 12))
        n_ranks, n_grids = 2, 3
        decomp = Decomposition(gd, n_ranks)
        coeffs = laplacian_coefficients(2, spacing=gd.spacing)
        engine = DistributedStencil(decomp, coeffs)
        halo = HaloSpec(2)
        arrays = {g: gd.random(seed=g) for g in range(n_grids)}
        blocks = {g: scatter(a, decomp, halo) for g, a in arrays.items()}
        tracer = SpanTracer(plane="real")

        def rank_fn(ep):
            mine = {g: blocks[g][ep.rank] for g in arrays}
            return engine.apply(
                ep,
                mine,
                approach=FLAT_OPTIMIZED,
                batch_size=1,
                on_step=engine_hook(tracer, ep.rank),
            )

        results = run_ranks(n_ranks, rank_fn)

        # the run itself stays bit-identical to the sequential stencil
        expected = SequentialStencil(gd, coeffs).apply(arrays)
        for g in arrays:
            got = gather([results[r][g] for r in range(n_ranks)])
            np.testing.assert_allclose(got, expected[g], rtol=1e-12)

        chart = ascii_gantt(tracer, normalize=True)
        for rank in range(n_ranks):
            resource = f"rank{rank}.w0"
            assert resource in tracer.resources()
            kinds = {s.step_kind for s in tracer.spans(resource)}
            assert {"ComputeInterior", "PostSend", "WaitAll"} <= kinds
            assert resource in chart


class TestPlanDependencies:
    """The dependency metadata the critical-path layer resolves edges
    with: every cross-worker edge ends at a WaitAll and starts at the
    PostSend (or ring stage) whose message that wait completes."""

    def _fd_plan(self, approach, cores, n_grids=4, batch=2, shape=(16, 16, 16)):
        return timing_plan(approach, GridDescriptor(shape), n_grids, cores, batch)

    @pytest.mark.parametrize("name,cores", [
        ("flat-optimized", 4), ("hybrid-multiple", 8),
    ])
    def test_one_edge_per_planned_message(self, name, cores):
        from repro.core import approach_by_name
        from repro.core.schedule import PostSend, plan_dependencies

        approach = approach_by_name(name)

        plan = self._fd_plan(approach, cores)
        deps = plan_dependencies(plan)
        assert len(deps) == plan.total_messages()
        for d in deps:
            assert d.kind == "message"
            src = plan.rank_plan(d.src[0]).workers[d.src[1]].steps[d.src[2]]
            dst = plan.rank_plan(d.dst[0]).workers[d.dst[1]].steps[d.dst[2]]
            assert isinstance(src, PostSend)
            assert isinstance(dst, WaitAll)

    def test_recv_sources_covers_every_receive_direction(self):
        from repro.core.schedule import recv_sources

        plan = self._fd_plan(FLAT_OPTIMIZED, 4)
        sources = recv_sources(plan)
        # every (domain, dim, direction) with a remote peer has a source
        for domain in range(plan.decomp.n_domains):
            for dim, step, src, _nb in plan._directions(domain)[1]:
                assert sources[(domain, dim, step)] == src

    def test_owners_filter_restricts_consumers(self):
        from repro.core.schedule import plan_dependencies

        plan = self._fd_plan(FLAT_OPTIMIZED, 4)
        only0 = plan_dependencies(plan, owners=[0])
        assert only0
        assert all(d.dst[0] == 0 for d in only0)
        assert len(only0) < len(plan_dependencies(plan))

    def test_band_plan_ring_edges(self):
        from repro.core import Planner, ProblemSpec
        from repro.core.schedule import RingSendRecv, plan_dependencies

        nb = 4
        plan = Planner().band_plan(ProblemSpec((16, 16, 16), 16), 16, nb)
        deps = plan_dependencies(plan)
        assert deps
        for d in deps:
            assert d.kind == "ring"
            # each group's wait is fed by its ring predecessor
            assert d.src[0] == plan.layout.ring_recv_group(d.dst[0])
            src = plan.group_steps(d.src[0])[d.src[2]]
            dst = plan.group_steps(d.dst[0])[d.dst[2]]
            assert isinstance(src, RingSendRecv)
            assert isinstance(dst, WaitAll)
