"""Shared utilities: units, factorization, and validation helpers.

These are small, dependency-free building blocks used across the whole
library — hardware specs express quantities through :mod:`repro.util.units`,
the domain decomposition relies on :mod:`repro.util.factorize`, and public
entry points validate their arguments with :mod:`repro.util.validation`.
"""

from repro.util.units import (
    KB,
    MB,
    GB,
    KIB,
    MIB,
    GIB,
    US,
    MS,
    NS,
    MHZ,
    GHZ,
    GFLOPS,
    format_bytes,
    format_rate,
)
from repro.util.factorize import (
    factorizations_3d,
    divisors,
    best_grid_factorization,
)
from repro.util.validation import (
    check_positive_int,
    check_in,
    check_shape3,
)

__all__ = [
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "US",
    "MS",
    "NS",
    "MHZ",
    "GHZ",
    "GFLOPS",
    "format_bytes",
    "format_rate",
    "factorizations_3d",
    "divisors",
    "best_grid_factorization",
    "check_positive_int",
    "check_in",
    "check_shape3",
]
