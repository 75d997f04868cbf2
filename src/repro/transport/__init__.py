"""Functional message transports for the *numerics* plane.

The performance plane runs on simulated time (:mod:`repro.core.simrun`); this
package is its functional counterpart: real NumPy buffers moving between
real rank contexts, so the four programming approaches can be executed
end-to-end and checked for bit-identical results against the sequential
stencil.

:class:`~repro.transport.inproc.InprocTransport` runs every rank in one OS
thread (NumPy releases the GIL, so kernels genuinely overlap), with an
mpi4py-flavoured non-blocking API: ``isend``/``irecv`` handles finished
by ``wait()``, receives matched on an explicit (source, tag) pair, and a
rank-ordered ``allreduce``.  Message payloads are copied at send time —
eager buffered semantics — which keeps arbitrary schedules deadlock-free
and the engine's correctness independent of timing.

The robustness layer (docs/ROBUSTNESS.md) lives alongside:

* :mod:`repro.transport.errors` — the typed error taxonomy
  (``CorruptPayloadError`` / ``HaloTimeoutError`` / ``RankKilledError``)
  with schedule-step attribution and crash reports,
* :mod:`repro.transport.faults` — seeded deterministic fault injection
  (:class:`FaultPlan` / :class:`FaultyTransport`) with checksummed
  payload framing.
"""

from repro.transport.errors import (
    CorruptPayloadError,
    CrashReport,
    HaloTimeoutError,
    RankKilledError,
    StepInfo,
    TransportError,
    crash_report_from,
    decode_halo_tag,
    describe_tag,
)
from repro.transport.faults import (
    FaultEvent,
    FaultPlan,
    FaultyEndpoint,
    FaultyTransport,
)
from repro.transport.inproc import (
    GroupEndpoint,
    InprocTransport,
    RankEndpoint,
    run_ranks,
)

__all__ = [
    "CorruptPayloadError",
    "CrashReport",
    "FaultEvent",
    "FaultPlan",
    "FaultyEndpoint",
    "FaultyTransport",
    "GroupEndpoint",
    "HaloTimeoutError",
    "InprocTransport",
    "RankEndpoint",
    "RankKilledError",
    "StepInfo",
    "TransportError",
    "crash_report_from",
    "decode_halo_tag",
    "describe_tag",
    "run_ranks",
]
