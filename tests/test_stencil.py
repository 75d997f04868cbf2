"""Tests for the stencil coefficients and kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stencil import (
    StencilCoefficients,
    apply_stencil_batch,
    apply_stencil_global,
    apply_stencil_padded,
    flops_per_point,
    laplacian_coefficients,
)
from repro.stencil.reference import apply_stencil_naive


class TestCoefficients:
    def test_radius2_is_13_points(self):
        st2 = laplacian_coefficients(2)
        assert st2.radius == 2
        assert st2.n_points == 13

    def test_radius2_classic_weights(self):
        st2 = laplacian_coefficients(2, spacing=1.0)
        assert st2.center == pytest.approx(3 * -2.5)
        assert st2.weights[0] == pytest.approx(4 / 3)
        assert st2.weights[1] == pytest.approx(-1 / 12)

    def test_spacing_scales_inverse_square(self):
        fine = laplacian_coefficients(2, spacing=0.5)
        coarse = laplacian_coefficients(2, spacing=1.0)
        assert fine.center == pytest.approx(4 * coarse.center)

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_weights_sum_to_zero(self, radius):
        """A constant field has zero Laplacian."""
        c = laplacian_coefficients(radius)
        assert c.center + 6 * sum(c.weights) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            laplacian_coefficients(0)
        with pytest.raises(ValueError):
            laplacian_coefficients(5)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            laplacian_coefficients(2, spacing=-1.0)

    def test_scale(self):
        st2 = laplacian_coefficients(2)
        kinetic = st2.scale(-0.5)
        assert kinetic.center == pytest.approx(-0.5 * st2.center)
        assert kinetic.weights[1] == pytest.approx(-0.5 * st2.weights[1])

    def test_flops_per_point(self):
        assert flops_per_point(laplacian_coefficients(2)) == 25
        assert flops_per_point(laplacian_coefficients(1)) == 13


class TestGlobalKernel:
    def test_constant_field_zero_laplacian_periodic(self):
        st2 = laplacian_coefficients(2)
        a = np.full((8, 8, 8), 3.7)
        out = apply_stencil_global(a, st2)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_plane_wave_eigenfunction(self):
        """exp(ikx) is an eigenfunction of the discrete periodic Laplacian."""
        n, h = 16, 0.3
        st2 = laplacian_coefficients(2, spacing=h)
        x = np.arange(n) * h
        k = 2 * np.pi / (n * h)
        wave = np.exp(1j * k * x)[:, None, None] * np.ones((1, n, n))
        out = apply_stencil_global(wave.astype(np.complex128), st2)
        # discrete eigenvalue of the radius-2 second difference
        w1, w2 = st2.weights
        lam = 3 * (-2.5 / h**2) + 2 * w1 * np.cos(k * h) + 2 * w2 * np.cos(2 * k * h)
        # subtract the y/z centre contributions already inside st2.center:
        # centre = 3*c0; y and z directions contribute c0 + 2*(w1+w2) = 0 each
        lam += 2 * (w1 + w2) * 2  # y and z neighbour terms on constant axes
        np.testing.assert_allclose(out, lam * wave, rtol=1e-10)

    def test_quadratic_exact_zero_boundary_interior(self):
        """The FD Laplacian of x^2+y^2+z^2 is exactly 6 in the interior
        (central differences are exact for quadratics)."""
        n, h = 12, 0.25
        st2 = laplacian_coefficients(2, spacing=h)
        idx = np.arange(n) * h
        X, Y, Z = np.meshgrid(idx, idx, idx, indexing="ij")
        a = X**2 + Y**2 + Z**2
        out = apply_stencil_global(a, st2, pbc=(False, False, False))
        inner = out[2:-2, 2:-2, 2:-2]
        np.testing.assert_allclose(inner, 6.0, rtol=1e-9)

    @pytest.mark.parametrize("pbc", [(True, True, True), (False, False, False),
                                     (True, False, True)])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_naive_reference(self, pbc, radius):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 6, 7))
        st_r = laplacian_coefficients(radius, spacing=0.7)
        fast = apply_stencil_global(a, st_r, pbc=pbc)
        slow = apply_stencil_naive(a, st_r, pbc=pbc)
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_too_small_periodic_grid_rejected(self):
        st2 = laplacian_coefficients(2)
        with pytest.raises(ValueError):
            apply_stencil_global(np.zeros((1, 8, 8)), st2)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_periodic_axis_below_twice_radius_rejected(self, radius):
        """A periodic axis with size < 2*radius would let distance-radius
        neighbours alias the same point through both wraps; the halo
        machinery cannot represent that, so the oracle must reject it."""
        st_r = laplacian_coefficients(radius)
        shape = [8, 8, 8]
        shape[1] = 2 * radius - 1
        with pytest.raises(ValueError):
            apply_stencil_global(np.zeros(tuple(shape)), st_r)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_periodic_axis_exactly_twice_radius_accepted(self, radius):
        """size == 2*radius is the boundary case the guard must still
        accept; there the two distance-radius wraps land on the same
        point and the result must match the naive modular reference."""
        rng = np.random.default_rng(21)
        shape = (2 * radius, 7, 2 * radius)
        a = rng.standard_normal(shape)
        st_r = laplacian_coefficients(radius, spacing=0.6)
        out = apply_stencil_global(a, st_r)
        np.testing.assert_allclose(
            out, apply_stencil_naive(a, st_r), rtol=1e-11
        )

    def test_small_nonperiodic_axis_still_allowed(self):
        """The tightened guard applies to periodic axes only: zero
        boundaries have no wraps to alias."""
        rng = np.random.default_rng(22)
        a = rng.standard_normal((2, 9, 9))
        st2 = laplacian_coefficients(2)
        out = apply_stencil_global(a, st2, pbc=(False, True, True))
        np.testing.assert_allclose(
            out, apply_stencil_naive(a, st2, pbc=(False, True, True)),
            rtol=1e-11,
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_linearity(self, seed):
        """stencil(a*x + b*y) == a*stencil(x) + b*stencil(y)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 6, 6))
        y = rng.standard_normal((6, 6, 6))
        a, b = rng.standard_normal(2)
        st2 = laplacian_coefficients(2)
        lhs = apply_stencil_global(a * x + b * y, st2)
        rhs = a * apply_stencil_global(x, st2) + b * apply_stencil_global(y, st2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_translation_equivariance_periodic(self, seed):
        """Rolling the input rolls the output (periodic stencils commute
        with translations)."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6, 6))
        st2 = laplacian_coefficients(2)
        rolled = apply_stencil_global(np.roll(a, 2, axis=0), st2)
        np.testing.assert_allclose(
            rolled, np.roll(apply_stencil_global(a, st2), 2, axis=0), atol=1e-10
        )

    def test_property_symmetric_operator(self):
        """<x, L y> == <L x, y>: the discrete Laplacian is self-adjoint."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 6, 6))
        y = rng.standard_normal((6, 6, 6))
        st2 = laplacian_coefficients(2)
        lhs = np.vdot(x, apply_stencil_global(y, st2))
        rhs = np.vdot(apply_stencil_global(x, st2), y)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPaddedKernel:
    def test_matches_global_on_fully_padded_array(self):
        """A globally periodic grid, manually padded, must reproduce the
        global kernel's output."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 7, 6))
        w = 2
        padded = np.pad(a, w, mode="wrap")
        st2 = laplacian_coefficients(2, spacing=0.4)
        out = apply_stencil_padded(padded, st2)
        np.testing.assert_allclose(out, apply_stencil_global(a, st2), rtol=1e-12)

    def test_zero_padding_matches_zero_boundary(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6, 6))
        padded = np.pad(a, 2, mode="constant")
        st2 = laplacian_coefficients(2)
        out = apply_stencil_padded(padded, st2)
        np.testing.assert_allclose(
            out, apply_stencil_global(a, st2, pbc=(False, False, False)), rtol=1e-12
        )

    def test_out_parameter_used(self):
        a = np.random.default_rng(0).standard_normal((9, 9, 9))
        st2 = laplacian_coefficients(2)
        out = np.empty((5, 5, 5))
        result = apply_stencil_padded(a, st2, out=out)
        assert result is out

    def test_out_shape_validated(self):
        st2 = laplacian_coefficients(2)
        with pytest.raises(ValueError):
            apply_stencil_padded(np.zeros((9, 9, 9)), st2, out=np.zeros((4, 4, 4)))

    def test_out_aliasing_rejected(self):
        st2 = laplacian_coefficients(2)
        padded = np.zeros((9, 9, 9))
        with pytest.raises(ValueError):
            apply_stencil_padded(padded, st2, out=padded[2:-2, 2:-2, 2:-2])

    def test_too_small_padded_array_rejected(self):
        st2 = laplacian_coefficients(2)
        with pytest.raises(ValueError):
            apply_stencil_padded(np.zeros((4, 9, 9)), st2)

    def test_single_point_block(self):
        """Blocks as small as 1^3 work (deep decompositions)."""
        rng = np.random.default_rng(8)
        padded = rng.standard_normal((5, 5, 5))
        st2 = laplacian_coefficients(2)
        out = apply_stencil_padded(padded, st2)
        assert out.shape == (1, 1, 1)
        expected = apply_stencil_naive(padded, st2, pbc=(False, False, False))
        assert out[0, 0, 0] == pytest.approx(expected[2, 2, 2])

    def test_complex_dtype(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
        padded = np.pad(a, 2, mode="wrap")
        st2 = laplacian_coefficients(2)
        out = apply_stencil_padded(padded, st2)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, apply_stencil_global(a, st2), rtol=1e-12)


class TestFusedAndBatchedKernels:
    """The scratch-based and batched kernels are the hot path; they must be
    *bit-identical* to the plain per-grid kernel and the sequential oracle
    across radii, dtypes, layouts and batch sizes."""

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scratch_kernel_bit_identical(self, radius, dtype):
        rng = np.random.default_rng(radius)
        n = 2 * radius + 3
        padded = rng.standard_normal((n + 2, n, n + 1)).astype(dtype)
        st_r = laplacian_coefficients(radius, spacing=0.8)
        plain = apply_stencil_padded(padded, st_r)
        block_shape = tuple(s - 2 * radius for s in padded.shape)
        out = np.empty(block_shape, dtype=dtype)
        scratch = np.empty((2,) + padded.shape, dtype=dtype)
        fused = apply_stencil_padded(padded, st_r, out=out, scratch=scratch)
        assert fused is out
        np.testing.assert_array_equal(fused, plain)

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_batch_kernel_bit_identical_to_per_grid(self, radius, dtype, batch):
        rng = np.random.default_rng(100 * radius + batch)
        n = 2 * radius + 2
        pshape = (n + 2 * radius,) * 3
        stack = rng.standard_normal((batch,) + pshape).astype(dtype)
        st_r = laplacian_coefficients(radius, spacing=1.1)
        got = apply_stencil_batch(stack, st_r)
        assert got.dtype == dtype
        for g in range(batch):
            np.testing.assert_array_equal(
                got[g], apply_stencil_padded(stack[g], st_r)
            )

    def test_batch_kernel_with_preallocated_buffers(self):
        rng = np.random.default_rng(7)
        st2 = laplacian_coefficients(2)
        stack = rng.standard_normal((5, 9, 9, 9))
        out = np.empty((5, 5, 5, 5))
        scratch = np.empty((2, 9, 9, 9))
        got = apply_stencil_batch(stack, st2, out_stack=out, scratch=scratch)
        assert got is out
        for g in range(5):
            np.testing.assert_array_equal(
                got[g], apply_stencil_padded(stack[g], st2)
            )

    def test_noncontiguous_input_views(self):
        """Strided inputs (every other grid of a big stack, transposed
        blocks) must produce the same bits as their contiguous copies."""
        rng = np.random.default_rng(8)
        st2 = laplacian_coefficients(2)
        big = rng.standard_normal((10, 9, 9, 9))
        strided = big[::2]  # non-contiguous 4-D stack
        assert not strided.flags.c_contiguous
        got = apply_stencil_batch(strided, st2)
        want = apply_stencil_batch(np.ascontiguousarray(strided), st2)
        np.testing.assert_array_equal(got, want)

        transposed = np.asarray(rng.standard_normal((9, 10, 11))).T
        assert not transposed.flags.c_contiguous
        got_t = apply_stencil_padded(transposed, st2)
        want_t = apply_stencil_padded(np.ascontiguousarray(transposed), st2)
        np.testing.assert_array_equal(got_t, want_t)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matches_oracle_bitwise_on_wrapped_grid(self, radius):
        """The fused padded kernel and the roll-based oracle share one
        accumulation order — their results agree to the last bit."""
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 7, 2 * radius + 2))
        padded = np.pad(a, radius, mode="wrap")
        st_r = laplacian_coefficients(radius, spacing=0.4)
        np.testing.assert_array_equal(
            apply_stencil_padded(padded, st_r),
            apply_stencil_global(a, st_r),
        )

    def test_matches_oracle_bitwise_zero_boundary(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 6, 6))
        st2 = laplacian_coefficients(2)
        np.testing.assert_array_equal(
            apply_stencil_padded(np.pad(a, 2, mode="constant"), st2),
            apply_stencil_global(a, st2, pbc=(False, False, False)),
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_batch_equals_oracle(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 9))
        shape = tuple(int(s) for s in rng.integers(4, 9, size=3))
        st2 = laplacian_coefficients(2, spacing=float(rng.uniform(0.3, 1.5)))
        grids = [rng.standard_normal(shape) for _ in range(batch)]
        stack = np.stack([np.pad(g, 2, mode="wrap") for g in grids])
        got = apply_stencil_batch(stack, st2)
        for g in range(batch):
            np.testing.assert_array_equal(
                got[g], apply_stencil_global(grids[g], st2)
            )

    def test_batch_requires_4d(self):
        st2 = laplacian_coefficients(2)
        with pytest.raises(ValueError):
            apply_stencil_batch(np.zeros((9, 9, 9)), st2)

    def test_scratch_shape_and_dtype_validated(self):
        """The scratch is one ``(2, *padded.shape)`` buffer of the input
        dtype; the old block shape and a padded-shaped single buffer are
        rejected, as are a wrong dtype and a non-contiguous buffer."""
        st2 = laplacian_coefficients(2)
        padded = np.zeros((9, 9, 9))
        apply_stencil_padded(padded, st2, scratch=np.zeros((2, 9, 9, 9)))
        for shape in ((5, 5, 5), (9, 9, 9), (2, 9, 9, 8), (3, 9, 9, 9)):
            with pytest.raises(ValueError, match="shape"):
                apply_stencil_padded(padded, st2, scratch=np.zeros(shape))
        with pytest.raises(ValueError, match="dtype"):
            apply_stencil_padded(
                padded, st2, scratch=np.zeros((2, 9, 9, 9), dtype=np.float32)
            )
        strided = np.zeros((2, 9, 9, 18))[..., ::2]
        with pytest.raises(ValueError, match="contiguous"):
            apply_stencil_padded(padded, st2, scratch=strided)
        stack = np.zeros((3, 9, 9, 9))
        with pytest.raises(ValueError, match="shape"):
            apply_stencil_batch(stack, st2, scratch=np.zeros((5, 5, 5)))
        apply_stencil_batch(stack, st2, scratch=np.zeros((2, 9, 9, 9)))

    def test_scratch_aliasing_rejected(self):
        """The scratch may alias neither the input nor ``out``."""
        st2 = laplacian_coefficients(2)
        buf = np.zeros((2, 9, 9, 9))
        padded, scratch = buf[1], buf
        with pytest.raises(ValueError, match="alias"):
            apply_stencil_padded(padded, st2, scratch=scratch)
        store = np.zeros((2, 9, 9, 9))
        out = store[0, :5, :5, :5]
        with pytest.raises(ValueError, match="alias"):
            apply_stencil_padded(
                np.zeros((9, 9, 9)), st2, out=out, scratch=store
            )
        stack = np.zeros((4, 9, 9, 9))
        with pytest.raises(ValueError, match="alias"):
            apply_stencil_batch(stack[:3], st2, scratch=stack[2:])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        radius=st.integers(1, 4),
        extra=st.tuples(*[st.integers(1, 14)] * 3),
        dtype=st.sampled_from([np.float32, np.float64, np.complex128]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_padded_equals_oracle_both_boundaries(
        self, radius, extra, dtype, seed
    ):
        """Flat-span kernel == oracle bit for bit, on any admissible shape,
        radius and dtype, with zero walls and with periodic wraps."""
        rng = np.random.default_rng(seed)
        shape = tuple(2 * radius + e for e in extra)
        a = rng.standard_normal(shape).astype(dtype)
        if dtype is np.complex128:
            a = a + 1j * rng.standard_normal(shape)
        st_r = laplacian_coefficients(radius, spacing=float(rng.uniform(0.3, 1.5)))
        for mode, pbc in (("constant", False), ("wrap", True)):
            got = apply_stencil_padded(np.pad(a, radius, mode=mode), st_r)
            want = apply_stencil_global(a, st_r, pbc=(pbc,) * 3)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_complex_batch(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 9, 9, 9)) + 1j * rng.standard_normal((2, 9, 9, 9))
        st2 = laplacian_coefficients(2)
        got = apply_stencil_batch(a, st2)
        assert got.dtype == np.complex128
        for g in range(2):
            np.testing.assert_array_equal(got[g], apply_stencil_padded(a[g], st2))
