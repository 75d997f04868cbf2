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
from tests.helpers import resource_spans

EVERY_APPROACH = ALL_APPROACHES + (FLAT_SUBGROUPS,)

#: (n_cores, n_grids, batch_size) grid for the consistency sweep
CONFIGS = [(4, 4, 1), (8, 6, 1), (8, 8, 2)]


def _batch_for(approach, batch_size):
    return batch_size if approach.supports_batching else 1


def _priced_domain(gd, n_grids, approach, n_cores, batch):
    """The domain whose plan the analytic model prices."""
    return PerformanceModel()._plan_costs(
        FDJob(gd, n_grids), approach, n_cores, batch, False
    )[1]


def _busiest_domain_sends(plan):
    return max(plan.message_count(d) for d in range(plan.decomp.n_domains))


def _total_messages(plan):
    """Messages sent across all domains per invocation."""
    return sum(plan.message_count(d) for d in range(plan.decomp.n_domains))


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
            assert sends == plan.message_count(d)
            posted += sends
            barriers = sum(
                1 for w in rp.workers for s in w.steps if isinstance(s, GridBarrier)
            )
            assert barriers == plan.grid_barriers_per_rank
        assert posted == _total_messages(plan)

    @pytest.mark.parametrize("approach", EVERY_APPROACH, ids=lambda a: a.name)
    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_des_replay_sends_the_planned_messages(self, approach, config):
        n_cores, n_grids, batch = config
        batch = _batch_for(approach, batch)
        gd, _, plan = _compile(approach, n_cores, n_grids, batch)
        result = simulate_fd(FDJob(gd, n_grids), approach, n_cores, batch)
        assert result.messages == _total_messages(plan)

    @pytest.mark.parametrize("approach", EVERY_APPROACH, ids=lambda a: a.name)
    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_model_counts_the_planned_messages(self, approach, config):
        n_cores, n_grids, batch = config
        batch = _batch_for(approach, batch)
        gd, _, plan = _compile(approach, n_cores, n_grids, batch)
        domain = _priced_domain(gd, n_grids, approach, n_cores, batch)
        assert plan.message_count(domain) == _busiest_domain_sends(plan)

    @pytest.mark.parametrize("approach", EVERY_APPROACH, ids=lambda a: a.name)
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
    def test_model_prices_the_busiest_domain(self, approach, periodic):
        """On a non-periodic grid domain 0 is a corner with half an
        interior domain's remote directions; the model prices the
        interior one (48 cores: at least three domains on some axis)."""
        n_cores, n_grids, batch = 48, 6, _batch_for(approach, 2)
        gd = GridDescriptor((24, 24, 24), pbc=(periodic,) * 3)
        plan = timing_plan(approach, gd, n_grids, n_cores, batch)
        assert max(plan.decomp.domains_shape) >= 3
        domain = _priced_domain(gd, n_grids, approach, n_cores, batch)
        assert plan.message_count(domain) == _busiest_domain_sends(plan)

    def test_open_grid_is_priced_at_an_interior_domain(self):
        gd = GridDescriptor((64, 64, 64), pbc=(False,) * 3)
        plan = timing_plan(FLAT_OPTIMIZED, gd, 8, 512, 2)
        assert plan.decomp.coords_of(73) == (1, 1, 1)
        assert plan.message_count(0) == 12
        assert _priced_domain(gd, 8, FLAT_OPTIMIZED, 512, 2) == 73
        assert plan.message_count(73) == 24

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
        assert sent == _total_messages(plan)


class TestModelRoundsAreTheExecutedSteps:
    """The analytic model prices ``worker_rounds`` and ``directions``
    without building steps; the engine and the DES run the steps
    ``rank_plan`` expands.  Both must be the same schedule."""

    @pytest.mark.parametrize("approach", EVERY_APPROACH, ids=lambda a: a.name)
    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
    def test_steps_expand_the_priced_rounds(self, approach, config, periodic):
        n_cores, n_grids, batch = config
        batch = _batch_for(approach, batch)
        gd = GridDescriptor((24, 24, 24), pbc=(periodic,) * 3)
        plan = timing_plan(approach, gd, n_grids, n_cores, batch)
        n = plan.decomp.n_domains
        for d in sorted({0, n // 2, n - 1}):
            send_dirs, recv_dirs = plan.directions(d)
            send_bytes = {(dim, step): nb for dim, step, _p, nb in send_dirs}
            recv_bytes = {(dim, step): nb for dim, step, _p, nb in recv_dirs}
            for w in plan.rank_plan(d).workers:
                rounds = plan.worker_rounds(w.index)
                waits: list = []
                for st in w.steps:
                    if isinstance(st, WaitAll) and (
                        not waits or waits[-1] != (st.seq, st.grid_ids)
                    ):
                        waits.append((st.seq, st.grid_ids))
                assert tuple(waits) == rounds
                grids_of = dict(rounds)
                sends = [st for st in w.steps if isinstance(st, PostSend)]
                assert [(st.seq, st.dim, st.step, st.dst) for st in sends] == [
                    (seq, dim, step, peer)
                    for seq, _grids in rounds
                    for dim, step, peer, _nb in send_dirs
                ]
                for st in sends:
                    assert st.grid_ids == grids_of[st.seq]
                    assert st.nbytes == send_bytes[st.dim, st.step] * len(st.grid_ids)
                for st in w.steps:
                    if isinstance(st, PostRecv):
                        assert st.grid_ids == grids_of[st.seq]
                        assert st.nbytes == recv_bytes[st.dim, st.step] * len(
                            st.grid_ids
                        )
                sent = sum(isinstance(s, PostSend) for s in w.steps)
                assert sent == len(send_dirs) * len(rounds)


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

    def test_scf_style_loop_compiles_once(self):
        """Re-running the same apply every iteration costs one compile,
        then cache hits only."""
        clear_plan_cache()
        gd = GridDescriptor((16, 16, 16))
        decomp = Decomposition(gd, 1)
        engine = DistributedStencil(
            decomp, laplacian_coefficients(2, spacing=gd.spacing)
        )
        blocks = {
            g: scatter(gd.random(seed=g), decomp, HaloSpec(2))[0]
            for g in range(4)
        }
        ep = InprocTransport(1).endpoint(0)
        for _ in range(10):
            engine.apply(ep, blocks, approach=FLAT_OPTIMIZED, batch_size=4)
        stats = plan_cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 9)



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
            kinds = {s.step_kind for s in resource_spans(tracer, resource)}
            assert {"ComputeInterior", "PostSend", "WaitAll"} <= kinds
            assert resource in chart


class TestPlanDependencies:
    """The dependency metadata the critical-path layer resolves edges
    with: every receive direction maps to the owner that sends it."""

    def _fd_plan(self, approach, cores, n_grids=4, batch=2, shape=(16, 16, 16)):
        return timing_plan(approach, GridDescriptor(shape), n_grids, cores, batch)

    def test_recv_sources_covers_every_receive_direction(self):
        from repro.core.schedule import recv_sources

        plan = self._fd_plan(FLAT_OPTIMIZED, 4)
        sources = recv_sources(plan)
        # every (domain, dim, direction) with a remote peer has a source
        for domain in range(plan.decomp.n_domains):
            for dim, step, src, _nb in plan.directions(domain)[1]:
                assert sources[(domain, dim, step)] == src

    def test_band_plan_ring_edges(self):
        from repro.core import Planner, ProblemSpec
        from repro.core.schedule import RING_DIM, PostRecv, recv_sources

        nb = 4
        plan = Planner().band_plan(ProblemSpec((16, 16, 16), 16), 16, nb)
        sources = recv_sources(plan)
        assert sorted(sources) == [(g, RING_DIM, +1) for g in range(nb)]
        for group in range(nb):
            # each group's ring stages are fed by its ring predecessor
            src = sources[(group, RING_DIM, +1)]
            assert src == plan.layout.ring_recv_group(group)
            stages = [st for st in plan.group_steps(group)
                      if isinstance(st, PostRecv)]
            assert stages
            assert {st.src for st in stages} == {src}
