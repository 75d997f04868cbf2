"""Tests for the ASCII line plots + CLI --plot paths."""

import pytest

from repro.analysis import line_plot
from repro.cli import main


class TestLinePlot:
    def test_basic_render(self):
        text = line_plot({"a": [(0, 0), (1, 1)]})
        lines = text.splitlines()
        assert any("o" in l for l in lines)
        assert "legend: o a" in lines[-1]

    def test_title(self):
        text = line_plot({"a": [(0, 1)]}, title="T")
        assert text.splitlines()[0] == "T"

    def test_multiple_series_distinct_markers(self):
        text = line_plot({"a": [(0, 0)], "b": [(1, 1)]})
        assert "o a" in text and "x b" in text

    def test_extremes_placed_at_corners(self):
        text = line_plot({"a": [(0, 0), (10, 10)]})
        rows = [l for l in text.splitlines() if l.count("|") == 2]
        # max y in the top row, min y in the bottom data row
        assert "o" in rows[0]
        assert "o" in rows[-1]

    def test_log_axis(self):
        text = line_plot({"a": [(1, 0), (10, 1), (100, 2)]}, x_log=True)
        rows = [l.split("|")[1] for l in text.splitlines() if l.count("|") == 2]
        # log-x straight line: the middle point lands mid-canvas
        cols = sorted(row.index("o") for row in rows if "o" in row)
        width = len(rows[0])
        assert cols == [0, round((width - 1) / 2), width - 1]

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_plot({"a": [(0, 1), (1, 2)]}, x_log=True)

    def test_empty(self):
        assert line_plot({}) == "(no data)"
        assert line_plot({"a": []}) == "(no data)"

    def test_constant_series(self):
        text = line_plot({"a": [(1, 5), (2, 5)]})
        assert "o" in text  # degenerate y-range handled


class TestCliPlots:
    def test_fig7_plot(self, capsys):
        assert main(["fig7", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "hyb-mult" in out

    def test_fig5_plot(self, capsys):
        assert main(["fig5", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
