"""Ping-pong bandwidth vs message size (Figure 2).

"In this experiment, one MPI message is send between two neighboring BGP
nodes" — we replay a message of each size from node 0 to its +x neighbour
on the DES machine, time it, and report achieved bandwidth.  The x-axis
spans 10^0 .. 10^7 bytes like the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.perfmodel import FDJob  # noqa: F401  (re-export convenience)
from repro.core.simrun import _replay_messages
from repro.machine.machine import Machine
from repro.machine.spec import BGP_SPEC, MachineSpec


@dataclass(frozen=True)
class BandwidthPoint:
    """One point of the Fig 2 curve."""

    message_bytes: int
    bandwidth: float  # bytes/second
    time: float  # seconds


def default_message_sizes() -> list[int]:
    """Fig 2's x-axis: 1, 2, 4, ... up to 10^7 bytes (log-spaced)."""
    sizes = []
    s = 1
    while s <= 10_000_000:
        sizes.append(s)
        s *= 2
    return sizes


def analytic_bandwidth_curve(
    sizes: list[int] | None = None, spec: MachineSpec = BGP_SPEC
) -> list[BandwidthPoint]:
    """The latency-bandwidth model's prediction of Fig 2."""
    sizes = default_message_sizes() if sizes is None else sizes
    out = []
    for s in sizes:
        t = spec.torus.message_time(s, hops=1)
        out.append(BandwidthPoint(message_bytes=s, bandwidth=s / t, time=t))
    return out


def measured_bandwidth_curve(
    sizes: list[int] | None = None,
) -> list[BandwidthPoint]:
    """Fig 2 measured on the DES machine: one message, two neighbour nodes."""
    sizes = default_message_sizes() if sizes is None else sizes
    out = []
    for s in sizes:
        machine = Machine(8)  # 2x2x2 mesh; nodes 0 and 4 are +x neighbours
        assert machine.topology.hop_distance(0, 4) == 1
        t = _replay_messages(machine, [(0, 4, 0, s)]).total
        out.append(BandwidthPoint(message_bytes=s, bandwidth=s / t, time=t))
    return out
