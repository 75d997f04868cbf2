"""Tests for the workspace arena and the zero-allocation engine path."""

import threading

import numpy as np
import pytest

from repro.core import DistributedStencil, SequentialStencil, Workspace
from repro.core.approaches import ALL_APPROACHES, FLAT_OPTIMIZED
from repro.grid import Decomposition, GridDescriptor, HaloSpec, gather, scatter
from repro.grid.array import LocalGrid
from repro.stencil import laplacian_coefficients
from repro.transport import InprocTransport, run_ranks


class TestWorkspaceBasics:
    def test_borrow_allocates_then_reuses(self):
        ws = Workspace()
        a = ws.borrow((8, 8), np.float64)
        assert a.shape == (8, 8) and a.dtype == np.float64
        assert ws.allocations == 1 and ws.reuses == 0
        assert ws.release(a)
        b = ws.borrow((8, 8), np.float64)
        assert b is a
        assert ws.allocations == 1 and ws.reuses == 1

    def test_distinct_keys_pool_separately(self):
        ws = Workspace()
        a = ws.borrow((4,), np.float64)
        b = ws.borrow((4,), np.float32)
        c = ws.borrow((2, 2), np.float64)
        assert ws.allocations == 3
        for buf in (a, b, c):
            ws.release(buf)
        assert ws.borrow((4,), np.float32) is b
        assert ws.borrow((2, 2), np.float64) is c
        assert ws.borrow((4,), np.float64) is a

    def test_concurrent_borrows_are_distinct(self):
        ws = Workspace()
        a = ws.borrow((4,))
        b = ws.borrow((4,))
        assert a is not b
        assert ws.allocations == 2
        assert ws.n_issued == 2

    def test_release_unknown_array_ignored(self):
        ws = Workspace()
        assert ws.release(np.zeros(3)) is False
        assert ws.n_free == 0

    def test_double_release_ignored(self):
        ws = Workspace()
        a = ws.borrow((4,))
        assert ws.release(a) is True
        assert ws.release(a) is False
        assert ws.n_free == 1

    def test_issued_tracks_outstanding_borrows(self):
        ws = Workspace()
        a = ws.borrow((4,))
        assert (ws.n_issued, ws.allocations) == (1, 1)
        assert ws.release(a) is True
        assert ws.n_issued == 0
        assert ws.release(np.zeros(4)) is False
        assert ws.borrow((4,)) is a
        assert (ws.allocations, ws.reuses) == (1, 1)

    def test_borrowing_context_manager(self):
        ws = Workspace()
        with ws.borrowing((5,), np.float64) as buf:
            assert ws.n_issued == 1
        assert ws.n_issued == 0
        assert ws.n_free == 1
        assert ws.borrow((5,)) is buf
        assert (ws.allocations, ws.reuses) == (1, 1)

    def test_dtype_like_keys_normalized(self):
        ws = Workspace()
        a = ws.borrow((3,), "float64")
        ws.release(a)
        assert ws.borrow((3,), np.float64) is a

    def test_thread_safety_smoke(self):
        ws = Workspace()
        errors = []

        def worker():
            try:
                for _ in range(200):
                    buf = ws.borrow((16,))
                    buf[:] = 1.0
                    ws.release(buf)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert ws.n_issued == 0
        # every borrow was either a fresh allocation or a pool hit
        assert ws.allocations + ws.reuses == 8 * 200


def _run_iterations(n_iters, n_ranks=1, n_grids=4, shape=(12, 12, 12),
                    approach=FLAT_OPTIMIZED, batch_size=2):
    """Run several steady-state apply calls reusing the output blocks.

    Returns (engine, gathered last result, expected).
    """
    gd = GridDescriptor(shape)
    decomp = Decomposition(gd, n_ranks)
    coeffs = laplacian_coefficients(2, spacing=gd.spacing)
    engine = DistributedStencil(decomp, coeffs)
    halo = HaloSpec(2)
    arrays = {gid: gd.random(seed=gid) for gid in range(n_grids)}
    blocks = {gid: scatter(a, decomp, halo) for gid, a in arrays.items()}
    allocs_per_iter = []

    def rank_fn(ep):
        mine = {gid: blocks[gid][ep.rank] for gid in arrays}
        result = None
        for _ in range(n_iters):
            before = engine.workspace.allocations
            result = engine.apply(
                ep, mine, approach=approach, batch_size=batch_size, out=result
            )
            allocs_per_iter.append(engine.workspace.allocations - before)
        return result

    results = run_ranks(n_ranks, rank_fn)
    gathered = {
        gid: gather([results[r][gid] for r in range(n_ranks)])
        for gid in arrays
    }
    expected = SequentialStencil(gd, coeffs).apply(arrays)
    return engine, gathered, expected, allocs_per_iter


class TestZeroAllocationSteadyState:
    def test_single_rank_strictly_zero_after_warmup(self):
        """With one rank the schedule is deterministic: after the first
        apply, the arena serves every borrow and allocations stop."""
        engine, gathered, expected, allocs = _run_iterations(4, n_ranks=1)
        assert allocs[0] > 0  # warm-up actually exercised the arena
        assert allocs[1:] == [0, 0, 0]
        for gid in expected:
            np.testing.assert_array_equal(gathered[gid], expected[gid])
        assert engine.workspace.n_issued == 0  # everything returned

    @pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.name)
    def test_multi_rank_allocations_bounded(self, approach):
        """With rank threads the pool's peak depends on interleaving, so
        the count is not exactly deterministic — but it must be bounded by
        peak concurrent demand, not grow with the iteration count.  A
        per-iteration leak (the pre-arena behaviour) would allocate
        hundreds of arrays here."""
        gd = GridDescriptor((12, 12, 12))
        decomp = Decomposition(gd, 4)
        coeffs = laplacian_coefficients(2, spacing=gd.spacing)
        engine = DistributedStencil(decomp, coeffs)
        halo = HaloSpec(2)
        arrays = {gid: gd.random(seed=gid) for gid in range(4)}
        blocks = {gid: scatter(a, decomp, halo) for gid, a in arrays.items()}
        batch = 2 if approach.supports_batching else 1
        n_iters = 20
        warm = threading.Barrier(4, timeout=60)

        def rank_fn(ep):
            mine = {gid: blocks[gid][ep.rank] for gid in arrays}
            result = None
            for i in range(n_iters):
                result = engine.apply(
                    ep, mine, approach=approach, batch_size=batch, out=result
                )
                if i == 2:
                    warm.wait()
                    if ep.rank == 0:
                        settled.append(engine.workspace.allocations)
                    warm.wait()
            return result

        settled = []
        run_ranks(4, rank_fn)
        # growth after the 3-iteration warm-up: transient timing peaks
        # only, never proportional to the remaining 17 iterations
        assert engine.workspace.allocations - settled[0] <= 8
        assert engine.workspace.n_issued == 0

    def test_steady_state_results_stay_correct(self):
        engine, gathered, expected, _ = _run_iterations(3, n_ranks=4)
        for gid in expected:
            np.testing.assert_array_equal(gathered[gid], expected[gid])

    def test_out_reuse_returns_same_localgrids(self):
        gd = GridDescriptor((8, 8, 8))
        decomp = Decomposition(gd, 1)
        coeffs = laplacian_coefficients(2)
        engine = DistributedStencil(decomp, coeffs)
        halo = HaloSpec(2)
        blocks = scatter(gd.random(seed=0), decomp, halo)

        def rank_fn(ep):
            first = engine.apply(ep, {0: blocks[ep.rank]})
            second = engine.apply(ep, {0: blocks[ep.rank]}, out=first)
            assert second is first
            assert second[0].data is first[0].data
            return second

        run_ranks(1, rank_fn)

    def test_out_with_wrong_grid_ids_rejected(self):
        gd = GridDescriptor((8, 8, 8))
        decomp = Decomposition(gd, 1)
        engine = DistributedStencil(decomp, laplacian_coefficients(2))
        halo = HaloSpec(2)
        blocks = scatter(gd.random(seed=0), decomp, halo)

        def rank_fn(ep):
            first = engine.apply(ep, {0: blocks[ep.rank]})
            with pytest.raises(ValueError):
                engine.apply(ep, {1: blocks[ep.rank]}, out=first)

        run_ranks(1, rank_fn)


class TestArenaTransportIntegration:
    def test_zero_copy_round_trip_recycles_buffer(self):
        """A buffer sent copy=False lands in the receiver's hands as the
        same object and can be released into the shared arena."""
        ws = Workspace()
        tr = InprocTransport(2)
        sent = []

        def fn(ep):
            if ep.rank == 0:
                buf = ws.borrow((6,), np.float64)
                buf[:] = np.arange(6.0)
                sent.append(buf)
                ep.isend(1, buf, tag=0, copy=False)
                return None
            payload = ep.recv(src=0, tag=0)
            got = payload.copy()
            assert ws.release(payload)  # receiver recycles sender's buffer
            return got

        results = run_ranks(2, fn, transport=tr)
        np.testing.assert_array_equal(results[1], np.arange(6.0))
        assert ws.n_free == 1
        assert ws.borrow((6,), np.float64) is sent[0]
