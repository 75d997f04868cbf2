"""Integer factorization helpers used by the 3D domain decomposition.

GPAW divides each real-space grid into ``P`` quadrilateral blocks; when the
user gives no explicit decomposition it picks the factorization
``P = px * py * pz`` that minimizes the aggregated surface of the blocks
(section IV of the paper).  The search over candidate factorizations lives
here; the surface *objective* lives in :mod:`repro.grid.decompose` because it
depends on the grid shape.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence


def divisors(n: int) -> list[int]:
    """Return all positive divisors of ``n`` in ascending order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=4096)
def factorizations_3d(n: int) -> tuple[tuple[int, int, int], ...]:
    """All ordered triples ``(a, b, c)`` with ``a * b * c == n``.

    The result is cached: decompositions are recomputed for every grid in a
    simulation, but the set of process counts in play is tiny.

    >>> sorted(factorizations_3d(4))[:3]
    [(1, 1, 4), (1, 2, 2), (1, 4, 1)]
    """
    out: list[tuple[int, int, int]] = []
    for a in divisors(n):
        m = n // a
        for b in divisors(m):
            out.append((a, b, m // b))
    return tuple(out)


def best_grid_factorization(
    n: int,
    objective: Callable[[tuple[int, int, int]], float],
) -> tuple[int, int, int]:
    """Return the 3-factorization of ``n`` minimizing ``objective``.

    Ties are broken deterministically in favour of the most "cubic"
    factorization (smallest spread between the largest and smallest factor),
    then lexicographically — this keeps decompositions stable across runs,
    which matters because rank layouts are derived from them.
    """
    candidates = factorizations_3d(n)
    return min(
        candidates,
        key=lambda f: (objective(f), max(f) - min(f), f),
    )


def balanced_partition(n: int, parts: int) -> list[int]:
    """Split ``n`` items into ``parts`` contiguous chunks as evenly as possible.

    The first ``n % parts`` chunks get one extra item — the same convention
    MPI block distributions use.

    >>> balanced_partition(10, 4)
    [3, 3, 2, 2]
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    base, extra = divmod(n, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def chunk_offsets(sizes: Sequence[int]) -> list[int]:
    """Exclusive prefix sum of chunk sizes: offsets of each chunk.

    >>> chunk_offsets([3, 3, 2, 2])
    [0, 3, 6, 8]
    """
    out = [0]
    for s in sizes[:-1]:
        out.append(out[-1] + s)
    return out
