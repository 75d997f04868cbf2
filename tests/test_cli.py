"""Tests for the experiment CLI (python -m repro ...)."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_fig5_batch_size_default(self):
        args = build_parser().parse_args(["fig5"])
        assert args.batch_size == 8

    @pytest.mark.parametrize("batch_size", ["0", "-3", "2", "4", "16"])
    def test_fig5_batch_size_names_a_panel(self, batch_size):
        # only the paper's two panels exist: 1 (unbatched) and 8
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig5", "--batch-size", batch_size])
        assert exc.value.code == 2

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 0 and args.ranks == 2 and not args.no_scf

    def test_mtbf_defaults(self):
        args = build_parser().parse_args(["mtbf"])
        assert args.cores == 16384
        assert args.grids == 512
        assert tuple(args.shape) == (128, 128, 128)

    def test_wholeapp_bands_option(self):
        # the band count is the shared --grids knob; --bands is not an
        # alias of it (under `repro metrics` it means SCF bands)
        args = build_parser().parse_args(["wholeapp", "--grids", "128"])
        assert args.grids == 128
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wholeapp", "--bands", "128"])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.cores == 16384
        assert args.grids == 2816
        assert tuple(args.shape) == (192, 192, 192)
        assert args.approach is None and args.des_check == 0

    def test_shared_knobs_uniform_across_subcommands(self):
        # the dedup satellite: every spec-backed subcommand parses the
        # same flags the same way
        for cmd in ("bandpar", "plan", "mtbf"):
            args = build_parser().parse_args(
                [cmd, "--cores", "64", "--grids", "32"]
            )
            assert (args.cores, args.grids) == (64, 32)


class TestDiagnosisUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--approach", "nope"],
            ["trace", "--approach", "flat-original", "--batch-size", "2"],
            ["trace", "--diff", "real:foo"],
            ["timeline", "--approach", "nope"],
            ["critpath", "--approach", "flat-original", "--batch-size", "2"],
            ["doctor", "--approach", "nope"],
            ["plan", "--cores", "0"],
            ["plan", "--approach", "nope"],
            ["mtbf", "--cores", "0"],
            ["metrics", "--ranks", "0"],
            ["wholeapp", "--grids", "0"],
            ["simscale", "--ranks", "3"],
            ["validate", "--cores", "3"],
            ["chaos", "--seed", "-1"],
            ["fig5", "--batch-size", "4"],
            ["timeline", "--cores", "3"],
            ["critpath", "--plane", "model", "--cores", "6", "--grids", "2"],
            ["doctor", "--cores", "3"],
            ["critpath", "--cores", "3"],
            ["trace", "--plane", "sim", "--cores", "3"],
            ["metrics", "--bands", "0"],
            ["metrics", "--size", "0"],
            ["metrics", "--iterations", "0"],
        ],
    )
    def test_bad_configuration_exits_2_with_one_error_line(
        self, capsys, argv
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1 and errors[0].startswith("repro")


class TestCommands:
    def test_table1(self, capsys):
        out = run(capsys, "table1")
        assert "850 MHz" in out
        assert "5.1GB/s" in out

    def test_fig2(self, capsys):
        out = run(capsys, "fig2")
        assert "bandwidth MB/s" in out
        assert "Fig 2" in out

    def test_fig5_right_panel(self, capsys):
        out = run(capsys, "fig5")
        assert "batch-size 8" in out
        assert "hyb-mult" in out

    def test_fig5_left_panel(self, capsys):
        out = run(capsys, "fig5", "--batch-size", "1")
        assert "batching disabled" in out

    def test_fig6(self, capsys):
        out = run(capsys, "fig6")
        assert "Gustafson" in out
        assert "MB/node" in out

    def test_fig7(self, capsys):
        out = run(capsys, "fig7")
        assert "2816 grids" in out

    def test_headline(self, capsys):
        out = run(capsys, "headline")
        assert "1.94" in out  # the paper column

    def test_ablation(self, capsys):
        out = run(capsys, "ablation")
        assert "sub-groups" in out
        assert "hybrid multiple" in out

    def test_wholeapp(self, capsys):
        out = run(capsys, "wholeapp", "--grids", "128")
        assert "128 bands" in out
        assert "Amdahl" in out

    def test_validate(self, capsys):
        out = run(capsys, "validate")
        assert "cross-validation" in out
        assert "ratio" in out

    def test_validate_header_names_the_requested_cores(self, capsys):
        out = run(capsys, "validate", "--cores", "8")
        assert out.splitlines()[0].startswith(
            "model-vs-DES cross-validation (8 cores,"
        )

    def test_report_contains_all_sections(self, capsys):
        out = run(capsys, "report")
        for marker in ("Table I", "Fig 2", "Fig 5", "Fig 6", "Fig 7",
                       "sub-groups", "headline", "whole application",
                       "cross-validation"):
            assert marker in out

    def test_calibrate(self, capsys):
        out = run(capsys, "calibrate")
        assert "anchor error" in out
        assert "shipped spec error" in out

    def test_schedule(self, capsys):
        out = run(capsys, "schedule", "flat-optimized",
                  "--cores", "8", "--grids", "4", "--batch-size", "2")
        assert "schedule flat-optimized" in out
        for token in ("PostSend", "PostRecv", "WaitAll", "ComputeInterior"):
            assert token in out

    def test_schedule_blocking_variant(self, capsys):
        out = run(capsys, "schedule", "flat-original", "--cores", "4")
        assert "blocking serialized exchange" in out

    def test_schedule_rejects_unknown_approach(self, capsys):
        with pytest.raises(ValueError, match="unknown approach"):
            main(["schedule", "no-such-approach"])

    def test_chaos(self, capsys):
        out = run(capsys, "chaos", "--no-scf")
        assert "Chaos survival matrix" in out
        assert "rank-kill" in out
        assert "chaos suite: PASS (seed 0)" in out

    def test_mtbf(self, capsys):
        out = run(capsys, "mtbf", "--cores", "4096", "--grids", "32",
                  "--shape", "64", "64", "64")
        assert "Daly checkpoint cadence" in out
        assert "32 bands of 64^3 on 4096 cores" in out

    def test_plan(self, capsys):
        out = run(capsys, "plan", "--cores", "32", "--grids", "16",
                  "--shape", "48", "48", "48")
        assert "planner — 16 grids of 48x48x48 on 32 cores" in out
        assert "planner best:" in out
        assert "config " in out  # the JobSpec hash travels with the verdict

    def test_bandpar_default_rows(self, capsys):
        # the paper-scale sweep: best hybrid-multiple batch per nb
        out = run(capsys, "bandpar")
        assert out.splitlines()[3:] == [
            "          1 | 192.584 | 5037.791 |    0.000 | 6578.465",
            "          2 | 182.755 | 5037.791 |  207.623 | 6499.829",
            "          4 | 173.436 | 5037.791 |  622.870 | 6425.283",
            "          8 | 163.693 | 5037.791 | 1453.364 | 6347.334",
            "modeled best nb = 8 at 16384 cores (6347.334 ms per step)",
        ]

    def test_bandpar_small_rows(self, capsys):
        out = run(capsys, "bandpar", "--cores", "64", "--grids", "32",
                  "--shape", "48", "48", "48")
        assert out.splitlines()[3:] == [
            "          1 | 8.498 |   2.602 |   0.000 |  70.587",
            "          2 | 7.900 |   2.602 |   9.443 |  72.642",
            "          4 | 7.574 |   2.602 |  28.328 |  88.921",
            "          8 | 7.381 |   2.602 |  66.098 | 125.148",
            "modeled best nb = 1 at 64 cores (70.587 ms per step)",
        ]

    def test_bandpar_without_feasible_group_count_exits(self):
        # 6 cores is no whole node: every band-group count is rejected,
        # and the command reports why instead of crashing
        with pytest.raises(SystemExit) as exc:
            main(["bandpar", "--cores", "6"])
        msg = str(exc.value.code)
        assert "no feasible band-group count" in msg
        assert "rejected hybrid-multiple nb=1: hybrid modes need whole " \
            "nodes, got 6 cores" in msg

    def test_plan_single_approach_with_des_check(self, capsys):
        out = run(capsys, "plan", "--cores", "32", "--grids", "16",
                  "--shape", "48", "48", "48",
                  "--approach", "hybrid-multiple", "--des-check", "1")
        assert "DES ms" in out
        assert "flat" not in out.splitlines()[2]  # only the named approach
