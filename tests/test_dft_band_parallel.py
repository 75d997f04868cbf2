"""End-to-end tests: the SCF under the 2D grid x band decomposition.

``DistributedSCF.from_spec`` with ``LayoutSpec(n_band_groups=nb)`` splits
the rank threads into band groups and runs the compiled
ring-orthogonalization plan on real NumPy blocks.  The decomposition
must be *exact*: every ``nb`` reaches the same converged state as the
single-group run (round-off apart), the checkpoint/restart path carries
the band-group layout, and the telemetry spans tag resources by band
group.
"""

import numpy as np
import pytest

from repro.core.engine import DistributedStencil
from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
from repro.core.schedule import RING_DIM, compile_band_schedule
from repro.dft import MemoryCheckpointStore, overlap_matrix
from repro.dft.band_ortho import BandRingExecutor, band_axis_sum
from repro.dft.distributed_scf import DistributedSCF
from repro.grid import BandGroups, Decomposition, GridDescriptor, HaloSpec, scatter
from repro.obs import SpanTracer, engine_hook
from repro.obs.critpath import _Columns, _cross_edges
from repro.stencil import laplacian_coefficients
from repro.transport import run_ranks
from repro.transport.errors import (
    CorruptPayloadError,
    RankKilledError,
    crash_report_from,
)
from repro.transport.faults import FaultPlan, FaultyTransport
from repro.transport.inproc import InprocTransport


def aniso_trap(n=8, spacing=0.6):
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=spacing)
    x, y, z = gd.coordinates()
    c = (n + 1) * spacing / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    return gd, v


def band_spec(gd, n_bands, n_ranks, n_band_groups, max_iterations=3):
    return JobSpec(
        problem=ProblemSpec.from_grid(gd, n_bands),
        layout=LayoutSpec(n_cores=n_ranks, n_band_groups=n_band_groups),
        runtime=RuntimeSpec(
            mixing=0.6, tolerance=0.0, max_iterations=max_iterations,
            band_iterations=4,
        ),
    )


def band_scf(n_ranks, n_band_groups, n_bands=4, store=None, max_iterations=3):
    gd, v = aniso_trap()
    return DistributedSCF.from_spec(
        band_spec(gd, n_bands, n_ranks, n_band_groups, max_iterations),
        v, occupations=[2.0] * n_bands, checkpoint_store=store,
    )


class TestValidation:
    """The divisibility contract now lives in JobSpec — an invalid band
    layout cannot even be represented, let alone reach the SCF."""

    def test_bands_must_divide_by_groups(self):
        gd, _ = aniso_trap()
        with pytest.raises(ValueError, match="band groups"):
            band_spec(gd, n_bands=3, n_ranks=4, n_band_groups=2)

    def test_ranks_must_divide_by_groups(self):
        gd, _ = aniso_trap()
        with pytest.raises(ValueError, match="divisible"):
            band_spec(gd, n_bands=4, n_ranks=3, n_band_groups=2)


@pytest.fixture(scope="module")
def oracle():
    """The single-group run every band-parallel run must reproduce."""
    return band_scf(n_ranks=4, n_band_groups=1).run()


class TestOracleAgreement:
    @pytest.mark.parametrize("nb", [2, 4])
    def test_energies_match_single_group(self, oracle, nb):
        res = band_scf(n_ranks=4, n_band_groups=nb).run()
        assert res.total_energy == pytest.approx(oracle.total_energy, abs=1e-10)
        np.testing.assert_allclose(res.energies, oracle.energies, atol=1e-10)

    def test_states_and_density_match_single_group(self, oracle):
        res = band_scf(n_ranks=4, n_band_groups=2).run()
        np.testing.assert_allclose(res.density, oracle.density, atol=1e-12)
        np.testing.assert_allclose(res.states, oracle.states, atol=1e-10)

    def test_gathered_states_orthonormal(self):
        res = band_scf(n_ranks=4, n_band_groups=2).run()
        gd, _ = aniso_trap()
        s = overlap_matrix(gd, res.states)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-8)

    def test_density_integrates_to_electron_count(self):
        res = band_scf(n_ranks=4, n_band_groups=4).run()
        gd, _ = aniso_trap()
        assert res.density.sum() * gd.spacing**3 == pytest.approx(8.0, rel=1e-6)


class TestPoissonSolvedOnce:
    def test_group_zero_solves_and_hands_its_bits_to_every_group(
        self, oracle, monkeypatch
    ):
        """One CG per SCF iteration: only group 0's ranks apply the
        Poisson engine, the band-axis sum hands every group the same
        ``v_h`` bits, and the energy still equals the one-group run."""
        import repro.dft.distributed_scf as dscf

        scf = band_scf(n_ranks=4, n_band_groups=2)
        applies = {rank: 0 for rank in range(4)}
        engine_apply = scf.poisson.engine.apply

        def counting_apply(gep, *args, **kwargs):
            applies[gep.endpoint.rank] += 1
            return engine_apply(gep, *args, **kwargs)

        v_h = {rank: [] for rank in range(4)}

        def recording_sum(ep, layout, array, round_id=0):
            total = band_axis_sum(ep, layout, array, round_id)
            if round_id == 1:
                v_h[ep.rank].append(total.tobytes())
            return total

        monkeypatch.setattr(scf.poisson.engine, "apply", counting_apply)
        monkeypatch.setattr(dscf, "band_axis_sum", recording_sum)
        res = scf.run()

        lay = scf.layout
        for domain in range(lay.ranks_per_group):
            g0, g1 = lay.rank_of(0, domain), lay.rank_of(1, domain)
            assert applies[g0] > 0 and applies[g1] == 0
            assert len(v_h[g0]) == res.iterations
            assert v_h[g0] == v_h[g1]
        assert res.total_energy == pytest.approx(oracle.total_energy, abs=1e-10)


class TestCheckpointRestart:
    def test_checkpoint_records_band_groups(self):
        store = MemoryCheckpointStore()
        band_scf(n_ranks=4, n_band_groups=2, store=store, max_iterations=1).run()
        ckpt = store.latest()
        assert ckpt.n_band_groups == 2
        assert ckpt.n_domains == 4
        # each rank deposits only its own group's half of the band set
        assert ckpt.blocks[0]["states"].shape[0] == 2

    def test_midrun_restart_matches_uninterrupted(self):
        full = band_scf(n_ranks=4, n_band_groups=2).run()  # 3 iterations
        store = MemoryCheckpointStore()
        band_scf(n_ranks=4, n_band_groups=2, store=store, max_iterations=2).run()
        ckpt = store.latest()
        assert ckpt.iteration == 2
        resumed = band_scf(n_ranks=4, n_band_groups=2).run(resume_from=ckpt)
        assert resumed.iterations == 3  # resumed at 3, finished at 3
        assert resumed.total_energy == pytest.approx(full.total_energy, abs=1e-10)
        np.testing.assert_allclose(resumed.states, full.states, atol=1e-10)

    def test_resume_regroups_to_fewer_groups(self):
        # a 2-group checkpoint resumes on a 1-group layout: the band
        # axis is re-gathered via regroup_checkpoint (the old typed
        # rejection is gone — this is the recovery ladder's path)
        full = band_scf(n_ranks=4, n_band_groups=2).run()
        store = MemoryCheckpointStore()
        band_scf(n_ranks=4, n_band_groups=2, store=store, max_iterations=2).run()
        ckpt = store.latest()
        resumed = band_scf(n_ranks=4, n_band_groups=1).run(resume_from=ckpt)
        assert resumed.total_energy == pytest.approx(full.total_energy, abs=1e-10)

    def test_resume_shrinks_and_regroups(self):
        # fewer ranks AND fewer groups in one resume — the node-loss
        # scenario the RecoveryController drives
        full = band_scf(n_ranks=4, n_band_groups=2).run()
        store = MemoryCheckpointStore()
        band_scf(n_ranks=4, n_band_groups=2, store=store, max_iterations=2).run()
        ckpt = store.latest()
        resumed = band_scf(n_ranks=2, n_band_groups=2).run(resume_from=ckpt)
        assert resumed.total_energy == pytest.approx(full.total_energy, abs=1e-10)
        resumed_1g = band_scf(n_ranks=3, n_band_groups=1).run(resume_from=ckpt)
        assert resumed_1g.total_energy == pytest.approx(
            full.total_energy, abs=1e-10
        )


@pytest.fixture(scope="module")
def ring_trace():
    """The real-plane step trace of one nb=2 SCF iteration on 4 ranks."""
    tracer = SpanTracer()
    band_scf(n_ranks=4, n_band_groups=2, max_iterations=1).run(
        step_tracer=tracer
    )
    return tracer


class TestTelemetry:
    def test_spans_tag_resources_by_band_group(self, ring_trace):
        spans = ring_trace.spans()
        resources = {s.resource for s in spans}
        assert {"bg0.rank0.w0", "bg0.rank1.w0", "bg1.rank0.w0", "bg1.rank1.w0"} <= resources
        kinds = {s.step_kind for s in spans}
        assert {"PostSend", "PostRecv", "PartialGemm", "WaitAll"} <= kinds
        # the ring stages are exchanges on their own direction index
        assert {s.step_kind for s in spans if s.dim == RING_DIM} == {
            "PostSend", "PostRecv"
        }

    def test_single_group_plan_has_no_ring_spans(self):
        tracer = SpanTracer()
        band_scf(n_ranks=2, n_band_groups=1, max_iterations=1).run(
            step_tracer=tracer
        )
        spans = tracer.spans()
        assert "PartialGemm" in {s.step_kind for s in spans}
        assert not any(s.dim == RING_DIM for s in spans)

    def test_no_plan_attribution_never_feeds_a_halo_wait_from_the_ring(
        self, ring_trace
    ):
        """Without a plan, producers match on ``(seq, dim, direction)``
        alone; the ring's own ``dim`` keeps ring sends off halo waits
        although both share seqs and resources in this trace."""
        tracer = SpanTracer()
        for span in ring_trace.spans():
            tracer.add(span)
        # each group's halo exchanges, recorded on the ring's resources
        gd = GridDescriptor((12, 12, 12))
        decomp = Decomposition(gd, 2)
        engine = DistributedStencil(decomp, laplacian_coefficients(2))
        blocks = [scatter(gd.random(seed=g), decomp, HaloSpec(2)) for g in range(2)]
        for group in range(2):
            run_ranks(2, lambda ep: engine.apply(
                ep, {g: blocks[g][ep.rank] for g in range(2)},
                on_step=engine_hook(tracer, ep.rank, f"bg{group}.rank"),
            ))
        cols = _Columns(tracer)
        edges = _cross_edges(cols, None)
        fed = {"halo": 0, "ring": 0}
        for wait, preds in edges.items():
            # a ring WaitAll carries no grid batch, a halo WaitAll does
            ring_wait = cols.grid_ids[wait] == ()
            assert all(
                (cols.dim[p] == RING_DIM) == ring_wait for p in preds
            )
            fed["ring" if ring_wait else "halo"] += 1
        assert fed["halo"] and fed["ring"]


class TestRingFailureAttribution:
    """A transport failure inside the ring walk names its compiled step,
    as the stencil engine's failures do."""

    LAYOUT = BandGroups(n_ranks=4, n_bands=4, n_groups=2)

    def _overlap(self, fault_plan):
        plan = compile_band_schedule(self.LAYOUT, 8, 8)
        block = np.arange(16.0).reshape(2, 8)

        def fn(ep):
            BandRingExecutor(self.LAYOUT, plan).band_matrix(ep, block, block, 1.0)

        run_ranks(
            4, fn, transport=FaultyTransport(InprocTransport(4), fault_plan)
        )

    def test_corrupt_ring_block_names_the_wait(self):
        # rank 0's first send is its ring block to rank 2 (group 1)
        with pytest.raises(CorruptPayloadError) as info:
            self._overlap(FaultPlan(seed=0, inject={(0, 0): "corrupt"}))
        si = info.value.step_info
        assert (si.rank, si.step_kind, si.seq) == (2, "WaitAll", 1)

    def test_killed_receive_names_rank_stage_and_peer(self):
        # rank 1's transport ops: the ring isend (0), then the irecv (1)
        with pytest.raises(RankKilledError) as info:
            self._overlap(FaultPlan(seed=0, kill_at={1: 1}))
        si = info.value.step_info
        # rank 1 (group 0, domain 1) receives from group 1's domain 1:
        # the peer is transport rank 3, the numbering ``si.rank`` uses
        assert self.LAYOUT.ring_recv_group(0) == 1
        assert (si.rank, si.step_kind, si.seq, si.dim, si.peer) == (
            1, "PostRecv", 1, RING_DIM, 3
        )


class TestBandParallelCrashReport:
    """A rank killed inside a band group's halo exchange: the report
    names transport ranks only and reads the same on every replay."""

    def _killed_run(self, kill_op, victim=2):
        plan = FaultPlan(seed=0, kill_at={victim: kill_op})
        tr = FaultyTransport(InprocTransport(4, default_timeout=0.1), plan)
        with pytest.raises(RankKilledError) as info:
            band_scf(4, 2, max_iterations=1).run(transport=tr)
        return info.value, crash_report_from(info.value, 1, tr)

    def test_step_names_transport_ranks(self):
        # op 10 of rank 2 (group 1, domain 0) posts a halo receive from
        # its group's domain 1, transport rank 3
        exc, _ = self._killed_run(10)
        si = exc.step_info
        assert si.rank == exc.failed_rank == 2
        assert (si.step_kind, si.peer) == ("PostRecv", 3)

    def test_ring_step_peer_is_a_transport_rank(self):
        # op 0 of rank 3 (group 1, domain 1) sends its ring block to
        # group 0's domain 1, transport rank 1
        exc, _ = self._killed_run(0, victim=3)
        si = exc.step_info
        assert (si.rank, si.step_kind, si.dim, si.peer) == (
            3, "PostSend", RING_DIM, 1
        )

    def test_report_replays_exactly(self):
        # the three peers time out together, in any thread order
        texts = {self._killed_run(10)[1].format() for _ in range(3)}
        assert len(texts) == 1
        (text,) = texts
        also = [
            line.split(":")[1].strip() for line in text.splitlines()
            if line.startswith("  also failed")
        ]
        assert also == ["rank 0", "rank 1", "rank 3"]
        assert text.count("rank 2 killed") == 1  # the primary, once


class TestBandAxisSum:
    def test_sum_is_bitwise_identical_across_peers(self):
        """Every same-domain peer sums contributions in group order, so
        the groups stay in bitwise lockstep on the density and on group
        0's Hartree potential."""
        lay = BandGroups(n_ranks=4, n_bands=4, n_groups=2)
        rng = np.random.default_rng(11)
        contribs = rng.standard_normal((4, 5, 5, 5))

        def fn(ep):
            return band_axis_sum(ep, lay, contribs[ep.rank].copy())

        results = run_ranks(4, fn)
        for domain in (0, 1):
            peers = [lay.rank_of(g, domain) for g in (0, 1)]
            want = contribs[peers[0]] + contribs[peers[1]]
            np.testing.assert_array_equal(results[peers[0]], results[peers[1]])
            np.testing.assert_allclose(results[peers[0]], want, rtol=1e-15)

    def test_single_group_is_identity(self):
        lay = BandGroups(n_ranks=2, n_bands=4, n_groups=1)
        arr = np.arange(8.0).reshape(2, 2, 2)

        def fn(ep):
            return band_axis_sum(ep, lay, arr.copy())

        for out in run_ranks(2, fn):
            np.testing.assert_array_equal(out, arr)
