"""JobSpec: the one validated, serializable run configuration.

Covers the contract every consumer now relies on: single-point
validation (the typed errors the planes used to duplicate), lossless
``to_dict``/``from_dict`` round-trips, a stable ``config_hash``, the
restart-compatibility check checkpoints enforce, and the CLI knob table
the subcommands build their shared option block from.
"""

import argparse
from dataclasses import replace

import pytest

from repro.core.jobspec import (
    CLI_KNOBS,
    JobSpec,
    LayoutSpec,
    ProblemSpec,
    RuntimeSpec,
    SpecMismatchError,
    add_spec_cli,
    check_restart_compatible,
    spec_from_args,
)
from repro.grid import GridDescriptor


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(shape=(8, 8), n_grids=1)
        with pytest.raises(ValueError):
            ProblemSpec(shape=(8, 8, 8), n_grids=0)
        with pytest.raises(ValueError):
            ProblemSpec(shape=(8, 8, 8), n_grids=1, spacing=0.0)
        with pytest.raises(ValueError):
            ProblemSpec(shape=(8, 8, 8), n_grids=1, dtype="float32")

    def test_grid_round_trip(self):
        gd = GridDescriptor((6, 8, 10), pbc=(False, True, False), spacing=0.3)
        p = ProblemSpec.from_grid(gd, 4)
        rebuilt = p.grid()
        assert rebuilt.shape == gd.shape
        assert rebuilt.pbc == gd.pbc
        assert rebuilt.spacing == gd.spacing
        assert rebuilt.dtype == gd.dtype

    def test_fd_job(self):
        job = ProblemSpec(shape=(8, 8, 8), n_grids=5).fd_job()
        assert job.n_grids == 5 and job.grid.shape == (8, 8, 8)


class TestLayoutSpec:
    def test_unknown_approach_rejected(self):
        with pytest.raises(ValueError, match="unknown approach"):
            LayoutSpec(approach="flat-turbo")

    def test_batching_validated_per_approach(self):
        with pytest.raises(ValueError, match="does not support batching"):
            LayoutSpec(approach="flat-original", batch_size=8)
        assert LayoutSpec(approach="flat-optimized", batch_size=8).batch_size == 8

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            LayoutSpec(n_cores=0)
        with pytest.raises(ValueError):
            LayoutSpec(n_band_groups=0)

    def test_hybrid_modes_need_whole_nodes(self):
        """Every plane shares the rule, so the spec rejects it up front."""
        with pytest.raises(ValueError, match="whole nodes"):
            LayoutSpec(approach="hybrid-multiple", n_cores=6)
        for n_cores in (1, 2, 3, 8):
            LayoutSpec(approach="hybrid-multiple", n_cores=n_cores)
        LayoutSpec(approach="flat-optimized", n_cores=6)


class TestRuntimeSpec:
    @pytest.mark.parametrize("kwargs", [
        {"mixing": 0.0},
        {"mixing": 1.5},
        {"tolerance": -1e-6},
        {"max_iterations": 0},
        {"xc": "pbe"},
        {"checkpoint_every": 0},
        {"eig_tol": -1e-9},
        {"eigensolver": "davidson"},
        {"checkpoint_keep": 0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeSpec(**kwargs)

    def test_zero_tolerance_allowed(self):
        # "run all iterations" is a legitimate test-suite configuration
        assert RuntimeSpec(tolerance=0.0).tolerance == 0.0

    def test_solver_and_store_knobs_round_trip(self):
        # the once-scattered knobs (SCFLoop's eig_tol/eigensolver, the
        # stores' keep) now live here and serialize with the spec
        spec = JobSpec(
            problem=ProblemSpec(shape=(8, 8, 8), n_grids=2),
            runtime=RuntimeSpec(
                eig_tol=1e-9, eigensolver="rmm-diis", checkpoint_keep=5
            ),
        )
        loaded = JobSpec.from_dict(spec.to_dict())
        assert loaded.runtime.eig_tol == 1e-9
        assert loaded.runtime.eigensolver == "rmm-diis"
        assert loaded.runtime.checkpoint_keep == 5

    def test_checkpoint_stores_build_from_spec(self, tmp_path):
        import numpy as np

        from repro.dft import (
            DistributedSCF,
            FileCheckpointStore,
            MemoryCheckpointStore,
        )

        spec = JobSpec(
            problem=ProblemSpec(shape=(8, 8, 8), n_grids=2),
            layout=LayoutSpec(n_cores=1),
            runtime=RuntimeSpec(checkpoint_keep=7),
        )
        v = np.zeros((8, 8, 8))
        fields = {"states": np.zeros((2, 8, 8, 8))}
        for name in ("rho_old", "v_h", "v_xc"):
            fields[name] = np.zeros((8, 8, 8))
        # both media keep the depositing run's checkpoint_keep snapshots
        for store in (
            MemoryCheckpointStore(),
            FileCheckpointStore.from_spec(spec, tmp_path / "c"),
        ):
            for it in range(1, 10):
                assert store.deposit(
                    iteration=it, rank=0, n_domains=1, shape=(8, 8, 8),
                    energies=np.zeros(2), fields=fields,
                    jobspec=spec.to_dict(),
                )
            assert store.iterations() == list(range(3, 10))
            assert DistributedSCF.from_spec(
                spec, v, checkpoint_store=store
            ).checkpoint_store is store
        DistributedSCF.from_spec(
            spec, v, checkpoint_store=MemoryCheckpointStore()
        )

    def test_placement_validated_and_round_trips(self):
        with pytest.raises(ValueError):
            RuntimeSpec(placement="random")
        spec = JobSpec(
            problem=ProblemSpec(shape=(8, 8, 8), n_grids=2),
            runtime=RuntimeSpec(placement="cyclic"),
        )
        assert JobSpec.from_dict(spec.to_dict()).runtime.placement == "cyclic"
        # pre-placement serialized specs load with the default
        d = spec.to_dict()
        del d["runtime"]["placement"]
        assert JobSpec.from_dict(d).runtime.placement == "auto"

    def test_placement_feeds_the_des_runner(self):
        # simulate_spec takes its placement from the spec
        from repro.core.simrun import simulate_fd, simulate_spec

        base = JobSpec(
            problem=ProblemSpec(shape=(16, 16, 16), n_grids=4),
            layout=LayoutSpec(approach="flat-optimized", n_cores=4),
        )
        for placement in ("cyclic", "spread"):
            direct = simulate_fd(
                base.problem.fd_job(), base.approach_obj(), 4, placement=placement
            )
            assert (
                simulate_spec(base.with_runtime(placement=placement)).total
                == direct.total
            )


class TestJobSpec:
    def spec(self, **layout):
        lay = dict(approach="hybrid-multiple", n_cores=16, batch_size=2)
        lay.update(layout)
        return JobSpec(
            problem=ProblemSpec(shape=(24, 24, 24), n_grids=8),
            layout=LayoutSpec(**lay),
            runtime=RuntimeSpec(tolerance=1e-5, seed=3),
        )

    def test_band_group_divisibility(self):
        assert self.spec(n_band_groups=2).group_cores == 8
        with pytest.raises(ValueError, match="divisible"):
            JobSpec(
                problem=ProblemSpec(shape=(24, 24, 24), n_grids=9),
                layout=LayoutSpec(n_cores=16, n_band_groups=2),
            )

    def test_group_job(self):
        s = self.spec(n_band_groups=2)
        assert s.group_job().n_grids == 4
        assert s.problem.fd_job().n_grids == 8

    def test_round_trip_exact(self):
        s = self.spec(n_band_groups=2, ramp_up=True)
        assert JobSpec.from_dict(s.to_dict()) == s

    def test_config_hash_stable_and_sensitive(self):
        s = self.spec()
        assert s.config_hash() == self.spec().config_hash()
        layout = replace(s.layout, batch_size=4)
        assert s.config_hash() != replace(s, layout=layout).config_hash()
        problem = replace(s.problem, n_grids=16)
        assert s.config_hash() != replace(s, problem=problem).config_hash()
        assert len(s.config_hash()) == 12

    def test_from_dict_rejects_unknown_keys(self):
        d = self.spec().to_dict()
        d["cluster"] = {}
        with pytest.raises(ValueError, match="unknown JobSpec sections"):
            JobSpec.from_dict(d)
        d = self.spec().to_dict()
        d["layout"]["gpus"] = 4
        with pytest.raises(ValueError, match="unknown JobSpec layout fields"):
            JobSpec.from_dict(d)

    def test_from_dict_needs_problem(self):
        with pytest.raises(ValueError, match="problem"):
            JobSpec.from_dict({"layout": {"n_cores": 4}})

    @pytest.mark.parametrize("data, match", [
        (5, "JobSpec must be a mapping, got int"),
        ({"problem": 5}, "problem section must be a mapping, got int"),
        (
            {"problem": {"shape": [8, 8, 8], "n_grids": 2},
             "layout": [["n_cores", 4]]},
            "layout section must be a mapping, got list",
        ),
        ({"problem": {"shape": [8, 8, 8]}}, r"problem section needs \['n_grids'\]"),
    ], ids=["scalar-spec", "scalar-section", "list-section", "missing-field"])
    def test_from_dict_malformed_is_a_value_error(self, data, match):
        # a checkpoint marker is outside input: no internal TypeError leaks
        with pytest.raises(ValueError, match=match):
            JobSpec.from_dict(data)

    def test_from_dict_fills_missing_fields_with_defaults(self):
        # the one-way compatibility rule: an older writer's spec loads
        d = {"problem": {"shape": [8, 8, 8], "n_grids": 2}}
        s = JobSpec.from_dict(d)
        assert s.layout == LayoutSpec()
        assert s.runtime == RuntimeSpec()

    def test_with_helpers_revalidate(self):
        s = self.spec()
        assert s.with_runtime(seed=7).runtime.seed == 7
        with pytest.raises(ValueError):
            s.with_runtime(tolerance=-1.0)


class TestRestartCompatibility:
    def spec(self, **kw):
        problem = {"shape": (6, 6, 6), "n_grids": 2}
        problem.update(kw.pop("problem", {}))
        return JobSpec(
            problem=ProblemSpec(**problem), layout=LayoutSpec(**kw)
        )

    def test_same_spec_compatible(self):
        check_restart_compatible(self.spec(), self.spec())

    def test_runtime_and_cores_may_differ(self):
        # the shrink-recovery path and a tightened tolerance are legal
        saved = self.spec(n_cores=4)
        current = self.spec(n_cores=2).with_runtime(tolerance=1e-8)
        check_restart_compatible(current, saved)

    def test_problem_mismatch_raises_typed_error(self):
        with pytest.raises(SpecMismatchError, match="does not match"):
            check_restart_compatible(
                self.spec(), self.spec(problem={"shape": (8, 8, 8)})
            )
        with pytest.raises(ValueError, match="n_grids"):
            check_restart_compatible(
                self.spec(), self.spec(problem={"n_grids": 4})
            )

    def test_band_groups_may_differ(self):
        # the regroup-recovery path: a band-parallel snapshot may resume
        # on a different group count (regroup_checkpoint re-slices the
        # band axis), so the layout section is not restart-checked
        saved = JobSpec(
            problem=ProblemSpec(shape=(6, 6, 6), n_grids=2),
            layout=LayoutSpec(
                approach="hybrid-multiple", n_cores=8, n_band_groups=2
            ),
        )
        check_restart_compatible(self.spec(), saved)

    def test_mismatches_list_every_difference(self):
        saved = self.spec(problem={"shape": (8, 8, 8), "n_grids": 4})
        with pytest.raises(SpecMismatchError) as exc:
            check_restart_compatible(self.spec(), saved)
        assert len(exc.value.mismatches) == 2


class TestCliKnobs:
    def parse(self, defaults, argv):
        parser = argparse.ArgumentParser()
        add_spec_cli(parser, defaults)
        return parser.parse_args(argv)

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown spec CLI knobs"):
            add_spec_cli(argparse.ArgumentParser(), {"threads": 4})

    def test_only_named_knobs_added(self):
        args = self.parse({"cores": 32}, [])
        assert args.cores == 32
        assert not hasattr(args, "grids")

    def test_grids_has_no_bands_alias(self):
        defaults = {"grids": 512, "shape": (8, 8, 8)}
        assert self.parse(defaults, ["--grids", "64"]).grids == 64
        assert self.parse(defaults, []).grids == 512
        with pytest.raises(SystemExit):
            self.parse(defaults, ["--bands", "64"])

    def test_spec_from_args(self):
        args = self.parse(
            {
                "approach": "flat-optimized", "cores": 8, "grids": 4,
                "batch_size": 1, "shape": (16, 16, 16), "ramp_up": False,
            },
            ["--approach", "hybrid-multiple", "--batch-size", "2", "--ramp-up"],
        )
        spec = spec_from_args(args)
        assert spec.layout.approach == "hybrid-multiple"
        assert spec.layout.batch_size == 2
        assert spec.layout.ramp_up is True
        assert spec.problem.shape == (16, 16, 16)
        assert spec_from_args(args, approach="flat-original",
                              batch_size=1).layout.approach == "flat-original"

    def test_knob_table_covers_layout_fields(self):
        # every LayoutSpec field is reachable from the CLI table
        assert {"approach", "cores", "batch_size", "band_groups", "ramp_up"} \
            <= set(CLI_KNOBS)
