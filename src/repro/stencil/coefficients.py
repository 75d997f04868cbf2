"""Central-difference coefficients for the real-space Laplacian.

GPAW approximates the Laplacian with per-axis central differences of
radius ``r`` (accuracy order ``2r``).  The classic coefficient rows for the
second derivative are exact rationals; we store them exactly and scale by
``1/h^2`` on construction.

The paper writes the radius-2 (13-point) case explicitly as constants
C1..C13: one centre weight and two distance weights per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.util.validation import check_positive_int

#: Exact second-derivative central-difference weights, by radius.
#: Entry r maps to (center, [w1, w2, ... wr]) such that
#:   f''(x) ~ (center*f(x) + sum_d wd*(f(x-d) + f(x+d))) / h^2
_SECOND_DERIVATIVE_WEIGHTS: dict[int, tuple[Fraction, list[Fraction]]] = {
    1: (Fraction(-2), [Fraction(1)]),
    2: (Fraction(-5, 2), [Fraction(4, 3), Fraction(-1, 12)]),
    3: (
        Fraction(-49, 18),
        [Fraction(3, 2), Fraction(-3, 20), Fraction(1, 90)],
    ),
    4: (
        Fraction(-205, 72),
        [Fraction(8, 5), Fraction(-1, 5), Fraction(8, 315), Fraction(-1, 560)],
    ),
}

MAX_RADIUS = max(_SECOND_DERIVATIVE_WEIGHTS)


@dataclass(frozen=True)
class StencilCoefficients:
    """An axis-symmetric 3D stencil: one centre weight + per-distance weights.

    ``apply`` semantics::

        out[p] = center * in[p] + sum_{axis, dist, sign} weights[dist-1] * in[p +/- dist*e_axis]

    The same per-distance weights apply along all three axes (the grids are
    isotropic), matching GPAW's Laplacian and the paper's C1..C13 form.
    """

    center: float
    weights: tuple[float, ...]  # weight at distance 1, 2, ... radius

    @property
    def radius(self) -> int:
        return len(self.weights)

    @property
    def n_points(self) -> int:
        """Points touched per output point (13 for radius 2)."""
        return 1 + 6 * self.radius

    def scale(self, factor: float) -> "StencilCoefficients":
        """A scaled stencil (e.g. ``-1/2 * laplacian`` for kinetic energy)."""
        return StencilCoefficients(
            center=self.center * factor,
            weights=tuple(w * factor for w in self.weights),
        )


def laplacian_coefficients(radius: int = 2, spacing: float = 1.0) -> StencilCoefficients:
    """The 3D Laplacian stencil of a given radius on spacing ``h``.

    The centre weight is three times the 1D centre (one per axis); distance
    weights are shared by all axes.
    """
    check_positive_int(radius, "radius")
    if radius not in _SECOND_DERIVATIVE_WEIGHTS:
        raise ValueError(
            f"radius must be in 1..{MAX_RADIUS}, got {radius}"
        )
    if not spacing > 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    center_1d, weights = _SECOND_DERIVATIVE_WEIGHTS[radius]
    h2 = spacing * spacing
    return StencilCoefficients(
        center=3 * float(center_1d) / h2,
        weights=tuple(float(w) / h2 for w in weights),
    )
