"""Finite-difference stencil kernels (section II-A of the paper).

The paper's operation is a 13-point stencil: a linear combination of a
point, its two nearest neighbours in all six axial directions, and itself —
the radius-2 central-difference Laplacian GPAW applies to wave functions
and the electrostatic potential.

* :mod:`repro.stencil.coefficients` — exact central-difference coefficient
  tables (radius 1..4) and the paper's C1..C13 constants.
* :mod:`repro.stencil.kernel` — vectorized NumPy application on padded
  local arrays and on global arrays (the sequential oracle).
* :mod:`repro.stencil.reference` — a naive triple-loop implementation used
  only to validate the vectorized kernels in tests.
"""

from repro.stencil.coefficients import (
    StencilCoefficients,
    laplacian_coefficients,
)
from repro.stencil.kernel import (
    apply_stencil_batch,
    apply_stencil_padded,
    apply_stencil_global,
    flops_per_point,
)

__all__ = [
    "StencilCoefficients",
    "laplacian_coefficients",
    "apply_stencil_batch",
    "apply_stencil_padded",
    "apply_stencil_global",
    "flops_per_point",
]
