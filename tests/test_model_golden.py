"""The analytic model against frozen golden data.

``tests/data/model_golden.json`` (written by ``tools/gen_des_golden.py``)
pins, as ``repr`` floats with no tolerance, every
:class:`~repro.core.perfmodel.FDTiming` field of every Fig. 5/6/7 cell,
the predicted times of every ranked choice of the Fig. 7 problem on
16384 cores, and the makespan and span count of the model's step trace
on periodic and non-periodic grids.  A change to how the model walks
its plan must leave every number here bit for bit where it was.
"""

import json
import math
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "model_golden.json").read_text())
TOOL = runpy.run_path(str(ROOT / "tools" / "gen_des_golden.py"))


class TestModelGolden:
    @pytest.mark.parametrize("family", list(TOOL["MODEL_FAMILIES"]))
    def test_family_is_bit_identical(self, family):
        got = json.loads(json.dumps({family: TOOL["MODEL_FAMILIES"][family]()}))
        assert TOOL["model_mismatches"]({family: GOLDEN[family]}, got) == []

    def test_golden_file_covers_every_family(self):
        assert list(GOLDEN) == list(TOOL["MODEL_FAMILIES"])
        assert len(GOLDEN["plan"]) == 59
        assert list(GOLDEN["step_trace"]) == [label for label, _, _ in TOOL["TRACE_CASES"]]

    def test_mismatch_names_the_drifted_record(self):
        moved = json.loads(json.dumps(GOLDEN))
        cell = moved["fig7"]["16384"]["hybrid-multiple"]
        cell["total"] = math.nextafter(cell["total"], math.inf)
        del moved["plan"][next(iter(moved["plan"]))]
        assert TOOL["model_mismatches"](GOLDEN, moved) == [
            "model/fig7/16384/hybrid-multiple",
            f"model/plan/{next(iter(GOLDEN['plan']))}",
        ]
