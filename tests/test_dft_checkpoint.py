"""Checkpoint/restart: atomic commit, rank re-slicing, kill recovery.

The crash-consistency rules under test (docs/ROBUSTNESS.md):

* a snapshot is visible only once **every** rank has deposited — a rank
  dying mid-checkpoint can never produce a half-written restart point;
* it commits exactly once, after every rank's write has returned, and
  holds only blocks this store received — on both media;
* resume is exact: interiors are carried bit-for-bit, including the
  shrink path where a checkpoint from N ranks restarts on M < N;
* an SCF run killed mid-iteration resumes from its last committed
  checkpoint and converges to the fault-free energy.
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.obs import MetricsRegistry


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


def committed(store, last=8) -> list[int]:
    """Iterations up to ``last`` that ``store.load`` finds, ascending."""
    out = []
    for it in range(last + 1):
        try:
            store.load(it)
        except KeyError:
            continue
        out.append(it)
    return out


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryCheckpointStore(metrics=MetricsRegistry())
    return FileCheckpointStore(tmp_path / "ckpt", metrics=MetricsRegistry())


class TestAtomicCommit:
    def test_partial_deposit_is_invisible(self, store):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        assert not deposit_rank(store, 1, 0, 2, decomp)
        assert store.latest() is None and committed(store) == []

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
        assert committed(store) == [3, 4]  # keep=2
        with pytest.raises(KeyError):
            store.load(1)

    def test_discard_pending_drops_partial_deposits(self, store):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        for rank in (0, 1):
            deposit_rank(store, 1, rank, 2, decomp)
        deposit_rank(store, 2, 0, 2, decomp)  # rank 1 died mid-checkpoint
        assert store.discard_pending() == 1  # iterations, not files
        assert committed(store) == [1]  # the committed one survives
        # the same iteration can now be re-deposited cleanly
        for rank in (0, 1):
            deposit_rank(store, 2, rank, 2, decomp)
        assert committed(store) == [1, 2]

    def test_rank_outside_layout_rejected(self, store):
        fields = make_fields((4, 8, 8))
        with pytest.raises(ValueError, match="rank 2 outside"):
            store.deposit(1, 2, 2, (8, 8, 8), np.array([1.0]), fields)

    @pytest.mark.parametrize("key,value", [
        ("n_domains", 4), ("n_band_groups", 2), ("shape", (8, 8, 16)),
    ])
    def test_disagreeing_deposits_rejected(self, store, key, value):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        payload = dict(
            iteration=1, n_domains=2, shape=(8, 8, 8),
            energies=np.array([1.0]), n_band_groups=1,
        )
        store.deposit(rank=0, fields=make_fields(decomp.block_shape(0)),
                      **payload)
        payload[key] = value
        with pytest.raises(ValueError, match=f"disagree on {key}"):
            store.deposit(rank=1, fields=make_fields(decomp.block_shape(1)),
                          **payload)
        assert store.latest() is None


class TestCommitOnce:
    """The snapshot commits once, after every rank's write has returned."""

    def test_concurrent_deposits_commit_once(self, store):
        n_ranks, n_iterations = 8, 20
        decomp = Decomposition(GridDescriptor((32, 32, 32)), n_ranks)
        barrier = threading.Barrier(n_ranks, timeout=60)
        commits: list[int] = []
        errors: list[str] = []

        def rank_body(rank):
            try:
                for it in range(1, n_iterations + 1):
                    barrier.wait()
                    if deposit_rank(store, it, rank, n_ranks, decomp, seed=it):
                        commits.append(it)
                        try:  # every rank's block is already whole
                            store.load(it)
                        except Exception as exc:
                            errors.append(f"load({it}): {exc!r}")
            except Exception as exc:
                errors.append(f"rank {rank}: {exc!r}")
                barrier.abort()

        threads = [
            threading.Thread(target=rank_body, args=(r,))
            for r in range(n_ranks)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the ranks' writes finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(commits) == list(range(1, n_iterations + 1))
        assert store.metrics.value("checkpoint_commits_total") == n_iterations

    def test_commit_waits_for_a_slow_write(self, store):
        # rank 0's last field blocks mid-write (on disk its file already
        # exists); rank 1's complete deposit must not commit meanwhile
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        writing, release = threading.Event(), threading.Event()
        fields = make_fields(decomp.block_shape(0))
        v_xc = fields["v_xc"]

        class SlowField:
            nbytes = v_xc.nbytes

            def __array__(self, dtype=None, copy=None):
                writing.set()
                release.wait(timeout=60)
                return v_xc

        fields["v_xc"] = SlowField()
        result = {}

        def deposit_rank0():
            result["committed"] = store.deposit(
                iteration=1, rank=0, n_domains=2, shape=(8, 8, 8),
                energies=np.array([1.0]), fields=fields,
            )

        rank0 = threading.Thread(target=deposit_rank0)
        rank0.start()
        try:
            assert writing.wait(timeout=60)
            assert not deposit_rank(store, 1, 1, 2, decomp)
            assert store.latest() is None
        finally:
            release.set()
            rank0.join(timeout=60)
        assert not rank0.is_alive() and result["committed"]
        np.testing.assert_array_equal(store.load(1).blocks[0]["v_xc"], v_xc)
        assert store.metrics.value("checkpoint_commits_total") == 1

    @pytest.mark.parametrize("n_ranks", [4, 8])
    def test_scf_commits_each_snapshot_once(self, tmp_path, n_ranks):
        registry = MetricsRegistry()
        store = FileCheckpointStore(tmp_path, metrics=registry)
        aniso_scf(n_ranks, store, max_iterations=4).run()
        assert registry.value("checkpoint_commits_total") == 4


class TestReceivedDepositsOnly:
    """A snapshot holds only blocks this store received."""

    def test_stale_rank_file_never_joins(self, tmp_path):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        deposit_rank(FileCheckpointStore(tmp_path), 3, 1, 2, decomp, seed=1)
        assert (tmp_path / "it00003_rank1.npz").exists()  # a dead run's
        store = FileCheckpointStore(tmp_path)
        assert not deposit_rank(store, 3, 0, 2, decomp, seed=2)
        assert store.latest() is None
        assert deposit_rank(store, 3, 1, 2, decomp, seed=2)
        fresh = make_fields(decomp.block_shape(1), seed=201)
        for name in CHECKPOINT_FIELDS:
            np.testing.assert_array_equal(
                store.load(3).blocks[1][name], fresh[name]
            )

    def test_redeposited_iteration_never_mixes(self, store):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        for rank in (0, 1):
            deposit_rank(store, 1, rank, 2, decomp, seed=1)
        assert not deposit_rank(store, 1, 0, 2, decomp, seed=2)
        assert store.latest() is None  # withdrawn, not half old, half new
        assert deposit_rank(store, 1, 1, 2, decomp, seed=2)
        for rank in (0, 1):
            fresh = make_fields(decomp.block_shape(rank), seed=200 + rank)
            np.testing.assert_array_equal(
                store.load(1).blocks[rank]["states"], fresh["states"]
            )

    def test_fresh_store_discards_dead_runs_files(self, tmp_path):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        dead = FileCheckpointStore(tmp_path)
        for rank in (0, 1):
            deposit_rank(dead, 1, rank, 2, decomp)
        three = Decomposition(GridDescriptor((8, 8, 8)), 3)
        for rank in (0, 1):  # rank 2 of 3 never deposits iteration 3
            deposit_rank(dead, 3, rank, 3, three)
        (tmp_path / "it00004.json.tmp").write_text("{}")  # died mid-commit
        assert FileCheckpointStore(tmp_path).discard_pending() == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "it00001.json", "it00001_rank0.npz", "it00001_rank1.npz",
        ]
        assert FileCheckpointStore(tmp_path).latest().iteration == 1


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

    def test_media_load_equal_snapshots(self, tmp_path):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 1)
        spec_dict = JobSpec(
            problem=ProblemSpec(shape=(8, 8, 8), n_grids=4),
            layout=LayoutSpec(n_cores=2, n_band_groups=2),
        ).to_dict()
        memory, disk = MemoryCheckpointStore(), FileCheckpointStore(tmp_path)
        for s in (memory, disk):
            for rank in (0, 1):  # 2 ranks x 2 groups, one domain each
                s.deposit(
                    iteration=4, rank=rank, n_domains=2, shape=(8, 8, 8),
                    energies=np.array([0.5, -1.25]),
                    fields=make_fields(decomp.block_shape(0), seed=rank),
                    n_band_groups=2, jobspec=spec_dict,
                )
        a, b = memory.load(4), disk.load(4)
        for ckpt in (a, b):
            assert ckpt.shape == (8, 8, 8) and isinstance(ckpt.shape, tuple)
        assert (a.iteration, a.n_domains, a.n_band_groups, a.jobspec) == (
            b.iteration, b.n_domains, b.n_band_groups, b.jobspec
        )
        assert a.energies.dtype == b.energies.dtype
        np.testing.assert_array_equal(a.energies, b.energies)
        assert set(a.blocks) == set(b.blocks) == {0, 1}
        for rank in a.blocks:
            assert set(a.blocks[rank]) == set(b.blocks[rank])
            for name, arr in a.blocks[rank].items():
                assert arr.dtype == b.blocks[rank][name].dtype
                np.testing.assert_array_equal(arr, b.blocks[rank][name])
        # the on-disk layout: rank files and one marker, nothing else
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "it00004.json", "it00004_rank0.npz", "it00004_rank1.npz",
        ]
        marker = json.loads((tmp_path / "it00004.json").read_text())
        assert set(marker) == {
            "version", "iteration", "n_domains", "n_band_groups", "shape",
            "energies", "jobspec",
        }

    @pytest.mark.parametrize("version", [1, 2])
    def test_hand_written_marker_loads(self, tmp_path, version):
        decomp = Decomposition(GridDescriptor((8, 8, 8)), 2)
        fields = {
            rank: make_fields(decomp.block_shape(rank), seed=rank)
            for rank in (0, 1)
        }
        for rank, f in fields.items():
            np.savez(tmp_path / f"it00006_rank{rank}.npz", **f)
        marker = {
            "version": version, "iteration": 6, "n_domains": 2,
            "shape": [8, 8, 8], "energies": [1.5, 2.5],
        }
        if version == 2:
            marker["n_band_groups"] = 1
            marker["jobspec"] = {"problem": {"shape": [8, 8, 8]}}
        (tmp_path / "it00006.json").write_text(json.dumps(marker))
        ckpt = FileCheckpointStore(tmp_path).latest()
        assert ckpt.iteration == 6 and ckpt.n_domains == 2
        assert ckpt.n_band_groups == 1 and ckpt.shape == (8, 8, 8)
        assert ckpt.jobspec == marker.get("jobspec")
        np.testing.assert_array_equal(ckpt.energies, [1.5, 2.5])
        for rank, f in fields.items():
            for name in CHECKPOINT_FIELDS:
                np.testing.assert_array_equal(ckpt.blocks[rank][name], f[name])


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

    def test_marker_without_spec_is_rejected(self, tmp_path):
        # a version-1 marker carries no JobSpec: resuming from it is a
        # typed error, not an unchecked restart
        import json

        from repro.core import SpecMismatchError

        store = FileCheckpointStore(tmp_path)
        aniso_scf(2, store, max_iterations=2).run()
        (marker,) = [
            p for p in tmp_path.glob("it*.json")
            if int(p.stem[2:]) == store.latest().iteration
        ]
        data = json.loads(marker.read_text())
        del data["jobspec"]
        marker.write_text(json.dumps(data))
        legacy = store.latest()
        with pytest.raises(SpecMismatchError, match="version-1"):
            aniso_scf(2, store=None).run(resume_from=legacy)


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

    @staticmethod
    def gather(ckpt, gd, n_bands):
        """Global ``states`` and, per band group, each scalar field."""
        from repro.grid import BandGroups

        lay = BandGroups(
            n_ranks=ckpt.n_domains, n_bands=n_bands,
            n_groups=ckpt.n_band_groups,
        )
        decomp = Decomposition(gd, lay.ranks_per_group)
        bpg = lay.bands_per_group
        states = np.full((n_bands,) + gd.shape, np.nan)
        scalars = {
            name: np.full((lay.n_groups,) + gd.shape, np.nan)
            for name in CHECKPOINT_FIELDS[1:]
        }
        for rank, block in ckpt.blocks.items():
            g, d = lay.group_of(rank), lay.domain_of(rank)
            sl = decomp.block_slices(d)
            states[(slice(g * bpg, (g + 1) * bpg),) + sl] = block["states"]
            for name, per_group in scalars.items():
                per_group[(g,) + sl] = block[name]
        return states, scalars

    #: (ranks per group, band groups); 6 bands allow nb in {1, 2, 3, 6}
    layouts = st.tuples(
        st.integers(min_value=1, max_value=5), st.sampled_from([1, 2, 3, 6])
    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=layouts, b=layouts, c=layouts)
    @example(a=(2, 2), b=(5, 1), c=(1, 3))  # 5 survivors, then 3 groups
    @example(a=(3, 6), b=(1, 3), c=(3, 1))  # 18 -> 3 -> 3 ranks
    def test_regroup_is_lossless_and_composes(self, a, b, c):
        from repro.dft import regroup_checkpoint

        n_bands = 6
        gd, states, scalars, ckpt = self.make_ckpt(
            n_ranks=a[0] * a[1], nb=a[1], n_bands=n_bands, shape=(6, 5, 4)
        )
        via_b = regroup_checkpoint(ckpt, gd, b[0] * b[1], b[1])
        got_states, got_scalars = self.gather(via_b, gd, n_bands)
        np.testing.assert_array_equal(got_states, states)
        for name, full in scalars.items():
            for per_group in got_scalars[name]:
                np.testing.assert_array_equal(per_group, full)
        direct = regroup_checkpoint(ckpt, gd, c[0] * c[1], c[1])
        composed = regroup_checkpoint(via_b, gd, c[0] * c[1], c[1])
        assert set(composed.blocks) == set(direct.blocks)
        for rank, block in direct.blocks.items():
            for name, arr in block.items():
                np.testing.assert_array_equal(composed.blocks[rank][name], arr)

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
