"""Unit + property tests for repro.util.factorize."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.factorize import (
    balanced_partition,
    best_grid_factorization,
    chunk_offsets,
    divisors,
    factorizations_3d,
)


class TestDivisors:
    def test_one(self):
        assert divisors(1) == [1]

    def test_twelve(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_perfect_square(self):
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    @given(st.integers(min_value=1, max_value=20_000))
    def test_all_divide_and_sorted(self, n):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert ds[0] == 1 and ds[-1] == n


class TestFactorizations3D:
    def test_unit(self):
        assert factorizations_3d(1) == ((1, 1, 1),)

    def test_count_for_p2(self):
        # 4 = 2^2: multichoose -> (1,1,4)x3 orders, (1,2,2)x3 orders = 6
        assert len(factorizations_3d(4)) == 6

    @given(st.integers(min_value=1, max_value=512))
    def test_products_and_uniqueness(self, n):
        fs = factorizations_3d(n)
        assert all(a * b * c == n for a, b, c in fs)
        assert len(set(fs)) == len(fs)

    @given(st.integers(min_value=1, max_value=256))
    def test_closed_under_permutation(self, n):
        fs = set(factorizations_3d(n))
        for a, b, c in list(fs):
            assert (c, b, a) in fs and (b, a, c) in fs


class TestBestGridFactorization:
    def test_minimizes_objective(self):
        # Objective: surface of blocks from a cube of side 12.
        def surface(f):
            bx, by, bz = 12 / f[0], 12 / f[1], 12 / f[2]
            return bx * by + by * bz + bx * bz

        best = best_grid_factorization(8, surface)
        assert sorted(best) == [2, 2, 2]

    def test_tie_break_is_deterministic(self):
        results = {best_grid_factorization(64, lambda f: 0.0) for _ in range(10)}
        assert len(results) == 1

    def test_tie_break_prefers_cubic(self):
        best = best_grid_factorization(27, lambda f: 0.0)
        assert best == (3, 3, 3)


class TestBalancedPartition:
    def test_even(self):
        assert balanced_partition(8, 4) == [2, 2, 2, 2]

    def test_uneven(self):
        assert balanced_partition(10, 4) == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        assert balanced_partition(2, 4) == [1, 1, 0, 0]

    def test_zero_items(self):
        assert balanced_partition(0, 3) == [0, 0, 0]

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            balanced_partition(3, 0)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=64))
    def test_sums_and_balance(self, n, parts):
        chunks = balanced_partition(n, parts)
        assert sum(chunks) == n
        assert len(chunks) == parts
        assert max(chunks) - min(chunks) <= 1
        assert chunks == sorted(chunks, reverse=True)


class TestChunkOffsets:
    def test_basic(self):
        assert chunk_offsets([3, 3, 2, 2]) == [0, 3, 6, 8]

    def test_single(self):
        assert chunk_offsets([5]) == [0]

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20))
    def test_offsets_match_cumsum(self, sizes):
        offs = chunk_offsets(sizes)
        for i in range(1, len(sizes)):
            assert offs[i] == offs[i - 1] + sizes[i - 1]
