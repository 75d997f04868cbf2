"""The DES replay against frozen golden data.

``tests/data/des_golden.json`` was generated by the generator-process
reference engine before it was retired (``tools/gen_des_golden.py``).
It pins, with no tolerance anywhere, every observable of the replay:
totals, utilization, byte/message counters, fired-event counts and
sha256 digests of the full activity trace (times, resources, labels,
tie order) and step trace, including under seeded
:class:`~repro.transport.faults.FaultPlan`\\ s with every fault kind
armed and with rank kills — plus the band-ring replay and the Fig. 2
ping-pong.  Any firing-order drift in the engine changes an event count
or a digest here.
"""

import json
import math
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "des_golden.json").read_text())
TOOL = runpy.run_path(str(ROOT / "tools" / "gen_des_golden.py"))


def _check_fd(name):
    assert TOOL["fd_record"](TOOL["run_fd"](name)) == GOLDEN["fd"][name]


BIT_IDENTICAL = [
    "flat-original-8c-b1",
    "flat-original-32c-b1",
    "flat-optimized-8c-b1",
    "flat-optimized-32c-b4",
    "flat-optimized-32c-b4-ramp",
    "hybrid-multiple-16c-b2",
    "hybrid-multiple-32c-b4",
    "hybrid-master-only-16c-b2",
    "hybrid-master-only-32c-b1",
    "flat-subgroups-32c-b2",
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", BIT_IDENTICAL, ids=BIT_IDENTICAL)
    def test_bit_identical(self, name):
        _check_fd(name)

    def test_single_core(self):
        _check_fd("single-core")

    def test_spread_placement(self):
        _check_fd("spread-placement")

    def test_without_tracing(self):
        # tracing off exercises the engine's untraced fast path
        _check_fd("untraced")


class TestEngineEquivalenceUnderFaults:
    @pytest.mark.parametrize(
        "name",
        ["faults-flat-opt", "faults-hybrid-mult", "faults-subgroups"],
        ids=["flat-opt", "hybrid-mult", "subgroups"],
    )
    def test_seeded_faults(self, name):
        assert GOLDEN["fd"][name]["fault_events"] > 0
        _check_fd(name)

    def test_rank_kill_restart(self):
        _check_fd("rank-kill-restart")

    def test_kill_under_hybrid(self):
        _check_fd("kill-under-hybrid")


class TestBandAndPingPongGoldens:
    @pytest.mark.parametrize("nb", [1, 2, 3, 6])
    def test_band_plan(self, nb):
        assert TOOL["band_record"](nb) == GOLDEN["band"][str(nb)]

    def test_fig2_times(self):
        assert TOOL["fig2_record"]() == GOLDEN["fig2"]
        assert len(GOLDEN["fig2"]) == 24

    def test_golden_file_covers_every_case(self):
        assert list(GOLDEN["fd"]) == list(TOOL["FD_CASES"])
        assert list(GOLDEN["band"]) == [str(nb) for nb in TOOL["BAND_GROUPS"]]


class TestDigestSensitivity:
    """The digests see one-ulp moves and tie-order swaps."""

    @pytest.fixture(scope="class")
    def rows(self):
        res = TOOL["run_fd"]("flat-optimized-8c-b1")
        return TOOL["span_rows"](res.trace)

    def test_digest_matches_golden(self, rows):
        assert TOOL["digest"](rows) == GOLDEN["fd"]["flat-optimized-8c-b1"]["span_sha256"]

    def test_one_ulp_changes_digest(self, rows):
        moved = list(rows)
        start, end, resource, kind = moved[len(moved) // 2]
        moved[len(moved) // 2] = (start, math.nextafter(end, math.inf), resource, kind)
        assert TOOL["digest"](moved) != TOOL["digest"](rows)

    def test_swapping_tied_rows_changes_digest(self, rows):
        first = {}
        for j, row in enumerate(rows):
            i = first.setdefault(row[:2], j)
            if i != j and rows[i] != row:
                break
        else:
            pytest.fail("no two distinct rows share (start, end)")
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert TOOL["digest"](swapped) != TOOL["digest"](rows)
