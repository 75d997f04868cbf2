"""Unit constants and human-readable formatting.

All simulator-internal quantities use SI base units: seconds for time,
bytes for data, bytes/second for rates, and flop/s for compute throughput.
Constants here are multipliers *into* those base units, e.g.::

    latency = 2.7 * US          # 2.7 microseconds, stored in seconds
    bandwidth = 425 * MB        # 425 MB/s, stored in bytes/second

Decimal (KB/MB/GB) and binary (KIB/MIB/GIB) prefixes are both provided;
network hardware is conventionally specified in decimal units while
memory sizes use binary units.
"""

from __future__ import annotations

# --- data sizes (bytes) ----------------------------------------------------
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

# --- time (seconds) ---------------------------------------------------------
NS = 1e-9
US = 1e-6
MS = 1e-3

# --- frequency (Hz) and compute (flop/s) ------------------------------------
MHZ = 1e6
GHZ = 1e9
GFLOPS = 1e9


def format_bytes(n: float) -> str:
    """Format a byte count using decimal prefixes ("1.5 MB")."""
    n = float(n)
    for unit, scale in (("GB", GB), ("MB", MB), ("KB", KB)):
        if abs(n) >= scale:
            return f"{n / scale:.3g} {unit}"
    return f"{n:.3g} B"


def format_rate(r: float) -> str:
    """Format a data rate in bytes/second ("425 MB/s")."""
    return f"{format_bytes(r)}/s"
