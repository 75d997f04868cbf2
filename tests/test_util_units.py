"""Tests for repro.util.units and repro.util.validation."""

import pytest

from repro.util import units
from repro.util.validation import (
    check_in,
    check_positive_int,
    check_shape3,
)
from repro.util.validation import check_nonnegative


class TestUnits:
    def test_decimal_prefixes(self):
        assert units.MB == 10**6
        assert units.GB == 10**9

    def test_binary_prefixes(self):
        assert units.MIB == 2**20

    def test_time_constants(self):
        assert units.US == pytest.approx(1e-6)
        assert 2.7 * units.US == pytest.approx(2.7e-6)

    def test_format_bytes(self):
        assert units.format_bytes(1500) == "1.5 KB"
        assert units.format_bytes(425 * units.MB) == "425 MB"
        assert units.format_bytes(3) == "3 B"

    def test_format_rate(self):
        assert units.format_rate(425 * units.MB) == "425 MB/s"


class TestValidation:
    def test_positive_int_accepts_int(self):
        assert check_positive_int(3, "n") == 3

    def test_positive_int_accepts_integral_float(self):
        assert check_positive_int(4.0, "n") == 4

    def test_positive_int_rejects_fraction(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5, "n")

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "n")

    def test_positive_int_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive_int("four", "n")

    def test_nonnegative(self):
        assert check_nonnegative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_nonnegative(-1e-9, "x")
        with pytest.raises(ValueError):
            check_nonnegative(float("nan"), "x")

    def test_check_in(self):
        assert check_in("a", {"a", "b"}, "mode") == "a"
        with pytest.raises(ValueError):
            check_in("c", {"a", "b"}, "mode")

    def test_shape3_accepts_list(self):
        assert check_shape3([4, 5, 6], "shape") == (4, 5, 6)

    def test_shape3_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            check_shape3((4, 5), "shape")

    def test_shape3_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_shape3((4, 0, 6), "shape")

    def test_shape3_rejects_scalar(self):
        with pytest.raises(TypeError):
            check_shape3(7, "shape")
