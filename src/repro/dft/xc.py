"""Exchange-correlation functionals (local density approximation).

GPAW is a density-functional code; the SCF loop's effective potential is
``V_ext + V_Hartree + V_xc``.  We implement the two standard LDA pieces:

* **Dirac/Slater exchange** — exact for the homogeneous electron gas:
  ``e_x = -(3/4)(3/pi)^(1/3) rho^(4/3)``, ``v_x = -(3 rho/pi)^(1/3)``.
* **Perdew–Zunger-style correlation** (Wigner's simple closed form is
  used: ``e_c = -a rho/(1 + d rs)`` with ``rs`` the Wigner-Seitz radius) —
  small compared to exchange, kept analytic so tests can verify it.

Energies are per unit volume (multiply by ``h^3`` and sum to integrate).
"""

from __future__ import annotations

import numpy as np

#: Dirac exchange constant: (3/4)(3/pi)^(1/3)
_CX = 0.75 * (3.0 / np.pi) ** (1.0 / 3.0)
#: Wigner correlation parameters (atomic units)
_WIGNER_A = 0.44
_WIGNER_D = 7.8


def _guard(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho < -1e-12):
        raise ValueError("density must be non-negative")
    return np.maximum(rho, 0.0)


def lda_exchange_energy_density(rho: np.ndarray) -> np.ndarray:
    """Exchange energy per volume: ``-C_x rho^(4/3)``."""
    rho = _guard(rho)
    return -_CX * rho ** (4.0 / 3.0)


def lda_exchange_potential(rho: np.ndarray) -> np.ndarray:
    """``v_x = d e_x / d rho = -(3 rho / pi)^(1/3)``."""
    rho = _guard(rho)
    return -((3.0 * rho / np.pi) ** (1.0 / 3.0))


def _rs(rho: np.ndarray) -> np.ndarray:
    """Wigner-Seitz radius of a (guarded) density."""
    safe = np.maximum(rho, 1e-30)
    return (3.0 / (4.0 * np.pi * safe)) ** (1.0 / 3.0)


def wigner_correlation_energy_density(rho: np.ndarray) -> np.ndarray:
    """Wigner correlation energy per volume: ``-a rho / (1 + d rs)``."""
    rho = _guard(rho)
    return -_WIGNER_A * rho / (1.0 + _WIGNER_D * _rs(rho))


def wigner_correlation_potential(rho: np.ndarray) -> np.ndarray:
    """``v_c = d e_c / d rho`` for the Wigner form (analytic)."""
    rho = _guard(rho)
    rs = _rs(rho)
    denom = 1.0 + _WIGNER_D * rs
    # e_c/rho = -a/denom; d rs/d rho = -rs/(3 rho)
    # v_c = -a/denom - a d rs/(3 denom^2) ... worked out:
    v = -_WIGNER_A / denom - _WIGNER_A * _WIGNER_D * rs / (3.0 * denom**2)
    return np.where(rho > 0, v, 0.0)


def lda_potential(rho: np.ndarray) -> np.ndarray:
    """The full LDA potential ``v_x + v_c``."""
    return lda_exchange_potential(rho) + wigner_correlation_potential(rho)


def lda_energy(rho: np.ndarray, spacing: float) -> float:
    """Integrated LDA (exchange + correlation) energy over the grid."""
    e = lda_exchange_energy_density(rho) + wigner_correlation_energy_density(rho)
    return float(e.sum() * spacing**3)
