"""Tests for repro.grid.grid (GridDescriptor)."""

import numpy as np
import pytest

from repro.grid import GridDescriptor


class TestGridDescriptor:
    def test_basic_properties(self):
        gd = GridDescriptor((144, 144, 144))
        assert gd.n_points == 144**3
        assert gd.bytes_per_point == 8
        assert gd.nbytes == 144**3 * 8

    def test_complex_grids_are_16_bytes(self):
        gd = GridDescriptor((8, 8, 8), dtype=np.complex128)
        assert gd.bytes_per_point == 16

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError):
            GridDescriptor((8, 8, 8), dtype=np.float32)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GridDescriptor((0, 8, 8))
        with pytest.raises(ValueError):
            GridDescriptor((8, 8))  # type: ignore[arg-type]

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            GridDescriptor((8, 8, 8), spacing=0.0)

    def test_zeros_and_empty(self):
        gd = GridDescriptor((4, 5, 6))
        z = gd.zeros()
        assert z.shape == (4, 5, 6)
        assert z.dtype == np.float64
        assert np.all(z == 0)
        assert gd.empty().shape == (4, 5, 6)

    def test_random_reproducible(self):
        gd = GridDescriptor((6, 6, 6))
        assert np.array_equal(gd.random(seed=3), gd.random(seed=3))
        assert not np.array_equal(gd.random(seed=3), gd.random(seed=4))

    def test_random_complex(self):
        gd = GridDescriptor((4, 4, 4), dtype=np.complex128)
        a = gd.random()
        assert a.dtype == np.complex128
        assert np.any(a.imag != 0)

    def test_check_array(self):
        gd = GridDescriptor((4, 4, 4))
        gd.check_array(gd.zeros())
        with pytest.raises(ValueError):
            gd.check_array(np.zeros((4, 4, 5)))
        with pytest.raises(ValueError):
            gd.check_array(np.zeros((4, 4, 4), dtype=np.float32))

    def test_coordinates_periodic_start_at_zero(self):
        gd = GridDescriptor((4, 4, 4), pbc=(True, True, True), spacing=0.5)
        x, _, _ = gd.coordinates()
        assert x[0, 0, 0] == 0.0
        assert x[-1, 0, 0] == pytest.approx(1.5)

    def test_coordinates_open_exclude_boundary(self):
        gd = GridDescriptor((4, 4, 4), pbc=(False, False, False), spacing=0.5)
        x, _, _ = gd.coordinates()
        assert x[0, 0, 0] == pytest.approx(0.5)

    def test_descriptor_hashable(self):
        gd1 = GridDescriptor((8, 8, 8))
        gd2 = GridDescriptor((8, 8, 8))
        assert gd1 == gd2
        assert hash(gd1) == hash(gd2)
