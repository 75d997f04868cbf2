"""Checkpoint/restart: atomic commit, rank re-slicing, kill recovery.

The crash-consistency rules under test (docs/ROBUSTNESS.md):

* a snapshot is visible only once **every** rank has deposited — a rank
  dying mid-checkpoint can never produce a half-written restart point;
* resume is exact: interiors are carried bit-for-bit, including the
  shrink path where a checkpoint from N ranks restarts on M < N;
* an SCF run killed mid-iteration resumes from its last committed
  checkpoint and converges to the fault-free energy.
"""

import numpy as np
import pytest

from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
from repro.dft import (
    DistributedSCF,
    FileCheckpointStore,
    MemoryCheckpointStore,
    SCFCheckpoint,
    redistribute_blocks,
)
from repro.dft.checkpoint import CHECKPOINT_FIELDS
from repro.grid import Decomposition, GridDescriptor


def make_fields(shape=(4, 4, 4), n_bands=2, seed=0):
    rng = np.random.default_rng(seed)
    fields = {"states": rng.standard_normal((n_bands,) + shape)}
    for name in CHECKPOINT_FIELDS[1:]:
        fields[name] = rng.standard_normal(shape)
    return fields


def deposit_rank(store, iteration, rank, n_domains, decomp, seed=0):
    shape = decomp.block_shape(rank)
    return store.deposit(
        iteration, rank, n_domains, decomp.grid.shape,
        energies=np.array([1.0]),
        fields=make_fields(shape, seed=seed * 100 + rank),
    )


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryCheckpointStore(keep=2)
    return FileCheckpointStore(tmp_path / "ckpt", keep=2)


class TestAtomicCommit:
    def test_partial_deposit_is_invisible(self, store):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        assert not deposit_rank(store, 1, 0, 2, decomp)
        assert store.latest() is None and store.iterations() == []

    def test_last_deposit_commits(self, store):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        deposit_rank(store, 1, 0, 2, decomp)
        assert deposit_rank(store, 1, 1, 2, decomp)
        ckpt = store.latest()
        assert ckpt.iteration == 1 and ckpt.n_domains == 2
        assert set(ckpt.blocks) == {0, 1}
        assert set(ckpt.blocks[0]) == set(CHECKPOINT_FIELDS)

    def test_deposit_roundtrips_values(self, store):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        for rank in (0, 1):
            deposit_rank(store, 3, rank, 2, decomp, seed=7)
        loaded = store.load(3)
        expect = make_fields(decomp.block_shape(1), seed=701)
        for name in CHECKPOINT_FIELDS:
            np.testing.assert_array_equal(loaded.blocks[1][name], expect[name])

    def test_missing_field_rejected(self, store):
        fields = make_fields((4, 4, 8))
        del fields["v_xc"]
        with pytest.raises(ValueError, match="missing fields.*v_xc"):
            store.deposit(1, 0, 2, (8, 8, 8), np.array([1.0]), fields)

    def test_prune_keeps_last_k(self, store):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        for it in (1, 2, 3, 4):
            for rank in (0, 1):
                deposit_rank(store, it, rank, 2, decomp)
        assert store.iterations() == [3, 4]  # keep=2
        with pytest.raises(KeyError):
            store.load(1)

    def test_discard_pending_drops_partial_deposits(self, store):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        for rank in (0, 1):
            deposit_rank(store, 1, rank, 2, decomp)
        deposit_rank(store, 2, 0, 2, decomp)  # rank 1 died mid-checkpoint
        assert store.discard_pending() >= 1
        assert store.iterations() == [1]  # the committed one survives
        # the same iteration can now be re-deposited cleanly
        for rank in (0, 1):
            deposit_rank(store, 2, rank, 2, decomp)
        assert store.iterations() == [1, 2]


class TestFileStoreFormat:
    def test_snapshot_without_marker_is_invisible(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        deposit_rank(store, 1, 0, 2, decomp)
        assert list(tmp_path.glob("*.npz"))  # rank file exists on disk
        assert not list(tmp_path.glob("*.json"))  # but no commit marker
        assert store.latest() is None

    def test_reopened_store_sees_committed_snapshots(self, tmp_path):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        store = FileCheckpointStore(tmp_path)
        for rank in (0, 1):
            deposit_rank(store, 5, rank, 2, decomp)
        again = FileCheckpointStore(tmp_path)  # a new process, same disk
        ckpt = again.latest()
        assert ckpt.iteration == 5
        assert ckpt.blocks[0]["states"].shape[0] == 2


class TestRedistributeBlocks:
    def _global_blocks(self, decomp, full):
        return {
            r: full[(Ellipsis,) + decomp.block_slices(r)]
            for r in range(decomp.n_domains)
        }

    @pytest.mark.parametrize("old_n,new_n", [(4, 2), (2, 4), (4, 4), (4, 1)])
    def test_reslicing_preserves_global_field(self, old_n, new_n):
        gd = GridDescriptor((8, 8, 8))
        old, new = Decomposition(gd, old_n), Decomposition(gd, new_n)
        full = np.random.default_rng(0).standard_normal(gd.shape)
        out = redistribute_blocks(self._global_blocks(old, full), old, new)
        for r, block in self._global_blocks(new, full).items():
            np.testing.assert_array_equal(out[r], block)

    def test_leading_band_axis_carried(self):
        gd = GridDescriptor((8, 8, 8))
        old, new = Decomposition(gd, 4), Decomposition(gd, 2)
        full = np.random.default_rng(1).standard_normal((3,) + gd.shape)
        out = redistribute_blocks(self._global_blocks(old, full), old, new)
        for r, block in self._global_blocks(new, full).items():
            assert out[r].shape == block.shape
            np.testing.assert_array_equal(out[r], block)

    def test_missing_source_rank_rejected(self):
        gd = GridDescriptor((8, 8, 8))
        old, new = Decomposition(gd, 4), Decomposition(gd, 2)
        blocks = self._global_blocks(old, np.zeros(gd.shape))
        del blocks[2]
        with pytest.raises(ValueError, match="need a block for each"):
            redistribute_blocks(blocks, old, new)


def aniso_scf(
    n_ranks, store, seed=0, max_iterations=4, tolerance=0.0, band_iterations=4
):
    n, h = 6, 0.6
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=h)
    x, y, z = gd.coordinates()
    c = (n + 1) * h / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    spec = JobSpec(
        problem=ProblemSpec.from_grid(gd, 1),
        layout=LayoutSpec(n_cores=n_ranks),
        runtime=RuntimeSpec(
            mixing=0.6, tolerance=tolerance, max_iterations=max_iterations,
            band_iterations=band_iterations, seed=seed,
        ),
    )
    return DistributedSCF.from_spec(
        spec, v, occupations=[2.0], checkpoint_store=store
    )


class TestKillResume:
    """The PR's acceptance scenario, at test-suite size."""

    def test_kill_resume_converges_to_fault_free_energy(self):
        from repro.analysis.chaos import kill_op_mid_iteration
        from repro.core import DegradationPolicy
        from repro.dft import RecoveryController
        from repro.transport import FaultPlan, FaultyTransport, InprocTransport

        converged = dict(tolerance=1e-3, max_iterations=30, band_iterations=10)
        oracle = aniso_scf(2, store=None, **converged).run()
        assert oracle.converged
        scf = aniso_scf(2, store=MemoryCheckpointStore(), **converged)
        # counted on a fault-free run: rank 1 dies mid-iteration 3,
        # after checkpoints 1 and 2 committed
        kill_op = kill_op_mid_iteration(
            lambda store: aniso_scf(2, store=store, **converged), rank=1
        )
        plan = FaultPlan(seed=0, kill_at={1: kill_op})

        def factory(attempt, n_ranks):
            return FaultyTransport(
                InprocTransport(n_ranks, default_timeout=1.0), plan
            )

        # the controller replans onto the survivor (2 ranks -> 1) and
        # resumes from checkpoint 2
        ctrl = RecoveryController(
            scf,
            policy=DegradationPolicy(max_restarts=2, adaptive_cadence=False),
            transport_factory=factory,
        )
        res = ctrl.run()
        assert [r.error_type for r in ctrl.reports] == ["RankKilledError"]
        assert ctrl.steps[0].resumed_iteration == 2
        assert res.restarts == 1 and res.final_ranks == 1
        assert res.converged
        assert abs(res.total_energy - oracle.total_energy) < 1e-6

        # the acceptance criterion: the recovered run converges to the
        # *sequential* SCF energy within the existing tolerance
        from repro.dft import SCFLoop

        seq = SCFLoop(
            scf.grid, scf.v_ext, n_bands=1, occupations=[2.0], mixing=0.6,
            tolerance=1e-3, max_iterations=30, eig_tol=1e-8,
        ).run()
        assert seq.converged
        assert res.total_energy == pytest.approx(seq.total_energy, abs=5e-3)

    def test_shrink_resume_on_fewer_ranks(self):
        store = MemoryCheckpointStore()
        aniso_scf(4, store, max_iterations=2).run()  # writes checkpoints
        ckpt = store.latest()
        assert ckpt.iteration == 2 and ckpt.n_domains == 4

        oracle = aniso_scf(2, store=None).run()
        resumed = aniso_scf(2, store=None).run(resume_from=ckpt)
        assert resumed.iterations == 4  # resumed at 3, finished at 4
        assert abs(resumed.total_energy - oracle.total_energy) < 5e-4

    def test_resume_rejects_mismatched_grid(self):
        store = MemoryCheckpointStore()
        aniso_scf(2, store, max_iterations=1).run()
        ckpt = store.latest()
        other = DistributedSCF.from_spec(
            JobSpec(
                problem=ProblemSpec.from_grid(GridDescriptor((8, 8, 8)), 1),
                layout=LayoutSpec(n_cores=2),
            ),
            np.zeros((8, 8, 8)),
        )
        with pytest.raises(ValueError, match="does not match"):
            other.run(resume_from=ckpt)


class TestEmbeddedJobSpec:
    """Version-2 checkpoints carry the writing run's serialized JobSpec."""

    def test_checkpoint_embeds_the_writing_runs_spec(self, store):
        from repro.core import JobSpec

        scf = aniso_scf(2, store, max_iterations=2)
        scf.run()
        ckpt = store.latest()
        assert ckpt.jobspec is not None
        assert JobSpec.from_dict(ckpt.jobspec) == scf.spec

    def test_roundtrip_resume_reaches_identical_energy(self, store):
        full = aniso_scf(2, store=None).run()  # 4 iterations, no store
        aniso_scf(2, store, max_iterations=2).run()
        resumed = aniso_scf(2, store=None).run(resume_from=store.latest())
        assert resumed.iterations == 4
        assert resumed.total_energy == pytest.approx(
            full.total_energy, abs=1e-10
        )
        np.testing.assert_allclose(resumed.states, full.states, atol=1e-10)

    def test_mismatched_spec_raises_typed_error(self, store):
        from repro.core import SpecMismatchError

        aniso_scf(2, store, max_iterations=1).run()
        ckpt = store.latest()
        other = DistributedSCF.from_spec(
            JobSpec(
                problem=ProblemSpec.from_grid(GridDescriptor((8, 8, 8)), 1),
                layout=LayoutSpec(n_cores=2),
            ),
            np.zeros((8, 8, 8)),
        )
        with pytest.raises(SpecMismatchError) as exc:
            other.run(resume_from=ckpt)
        assert any("shape" in m for m in exc.value.mismatches)

    def test_version1_checkpoint_without_spec_still_resumes(self):
        # the legacy field-by-field checks keep guarding old snapshots
        store = MemoryCheckpointStore()
        aniso_scf(2, store, max_iterations=2).run()
        ckpt = store.latest()
        legacy = SCFCheckpoint(
            iteration=ckpt.iteration,
            n_domains=ckpt.n_domains,
            shape=ckpt.shape,
            energies=ckpt.energies,
            blocks=ckpt.blocks,
            n_band_groups=ckpt.n_band_groups,
        )
        assert legacy.jobspec is None
        resumed = aniso_scf(2, store=None).run(resume_from=legacy)
        assert resumed.iterations == 4


class TestRegroupCheckpoint:
    """Pure-numpy shrink/regroup of a committed band-parallel snapshot."""

    def make_ckpt(self, n_ranks=4, nb=2, n_bands=4, shape=(8, 8, 8), seed=3):
        from repro.grid import BandGroups

        gd = GridDescriptor(shape)
        lay = BandGroups(n_ranks=n_ranks, n_bands=n_bands, n_groups=nb)
        decomp = Decomposition(gd, lay.ranks_per_group)
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((n_bands,) + shape)
        scalars = {
            name: rng.standard_normal(shape) for name in CHECKPOINT_FIELDS[1:]
        }
        bpg = n_bands // nb
        blocks = {}
        for rank in range(n_ranks):
            g, d = lay.group_of(rank), lay.domain_of(rank)
            sl = decomp.block_slices(d)
            blocks[rank] = {
                "states": states[(slice(g * bpg, (g + 1) * bpg),) + sl].copy()
            }
            for name, full in scalars.items():
                blocks[rank][name] = full[sl].copy()
        ckpt = SCFCheckpoint(
            iteration=5, n_domains=n_ranks, shape=shape,
            energies=np.arange(n_bands, dtype=float), blocks=blocks,
            n_band_groups=nb, jobspec={"problem": {"shape": list(shape)}},
        )
        return gd, states, scalars, ckpt

    @pytest.mark.parametrize("new_ranks,new_nb", [
        (2, 1),   # shrink ranks, re-gather bands
        (3, 1),   # shrink to a non-divisor rank count
        (2, 2),   # shrink ranks, keep groups
        (4, 4),   # same ranks, more groups (direction-agnostic)
        (4, 2),   # identity
    ])
    def test_regroup_preserves_global_fields(self, new_ranks, new_nb):
        from repro.dft import regroup_checkpoint
        from repro.grid import BandGroups

        gd, states, scalars, ckpt = self.make_ckpt()
        out = regroup_checkpoint(ckpt, gd, new_ranks, new_nb)
        assert out.n_domains == new_ranks
        assert out.n_band_groups == new_nb
        lay = BandGroups(n_ranks=new_ranks, n_bands=4, n_groups=new_nb)
        decomp = Decomposition(gd, lay.ranks_per_group)
        bpg = 4 // new_nb
        for rank in range(new_ranks):
            g, d = lay.group_of(rank), lay.domain_of(rank)
            sl = decomp.block_slices(d)
            np.testing.assert_array_equal(
                out.blocks[rank]["states"],
                states[(slice(g * bpg, (g + 1) * bpg),) + sl],
            )
            for name, full in scalars.items():
                np.testing.assert_array_equal(out.blocks[rank][name], full[sl])

    def test_keeps_iteration_energies_and_jobspec(self):
        from repro.dft import regroup_checkpoint

        gd, _, _, ckpt = self.make_ckpt()
        out = regroup_checkpoint(ckpt, gd, 2, 1)
        assert out.iteration == ckpt.iteration
        np.testing.assert_array_equal(out.energies, ckpt.energies)
        assert out.jobspec == ckpt.jobspec

    def test_band_indivisible_group_count_rejected(self):
        from repro.dft import regroup_checkpoint

        gd, _, _, ckpt = self.make_ckpt()  # 4 bands
        with pytest.raises(ValueError, match="band groups"):
            regroup_checkpoint(ckpt, gd, 3, 3)

    def test_rank_indivisible_group_count_rejected(self):
        from repro.dft import regroup_checkpoint

        gd, _, _, ckpt = self.make_ckpt()
        with pytest.raises(ValueError, match="divisible"):
            regroup_checkpoint(ckpt, gd, 3, 2)


class TestBandGroupMarkers:
    def test_marker_records_band_group_layout(self, tmp_path):
        import json

        from repro.dft.checkpoint import CHECKPOINT_VERSION

        store = FileCheckpointStore(tmp_path)
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 1)
        spec_dict = {"problem": {"shape": [8, 8, 8], "n_grids": 2}}
        for rank in (0, 1):  # 2 ranks x 2 groups, one domain each
            store.deposit(
                1, rank, 2, (8, 8, 8), np.array([1.0]),
                make_fields(decomp.block_shape(0)),
                n_band_groups=2, jobspec=spec_dict,
            )
        markers = list(tmp_path.glob("*.json"))
        assert len(markers) == 1
        marker = json.loads(markers[0].read_text())
        assert marker["version"] == CHECKPOINT_VERSION == 2
        assert marker["n_band_groups"] == 2
        assert marker["jobspec"] == spec_dict

    def test_reopened_store_restores_band_group_layout(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 1)
        for rank in (0, 1):
            store.deposit(
                2, rank, 2, (8, 8, 8), np.array([1.0]),
                make_fields(decomp.block_shape(0)), n_band_groups=2,
            )
        again = FileCheckpointStore(tmp_path)
        ckpt = again.latest()
        assert ckpt.n_band_groups == 2 and ckpt.n_domains == 2
