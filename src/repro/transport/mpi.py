"""Real-MPI transport: the same engine, an actual cluster.

The functional engine talks to a small endpoint interface (``isend`` /
``irecv`` / ``waitall`` / ``barrier`` / ``allreduce``).  This module
implements it over `mpi4py`, so the identical
:class:`~repro.core.engine.DistributedStencil` code that the test suite
runs on in-process threads runs unchanged under ``mpirun`` — one rank per
process, NumPy buffers on the wire.

mpi4py is an *optional* dependency: importing this module without it
raises :class:`MpiUnavailableError` with an actionable message, and
:func:`mpi_available` lets callers probe first.  (The offline CI for this
repository has no MPI; the adapter is exercised by the interface-
conformance tests below the guard and by any user with `mpirun`.)

Usage on a cluster::

    # engine_script.py
    from repro.transport.mpi import MpiEndpoint
    ep = MpiEndpoint()          # wraps MPI.COMM_WORLD
    out = engine.apply(ep, my_blocks, approach=HYBRID_MULTIPLE, batch_size=8)

    $ mpirun -n 64 python engine_script.py
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.transport.inproc import TransportStats

#: wildcard markers, mirroring repro.transport.inproc
ANY_SOURCE = -1
ANY_TAG = -1


class MpiUnavailableError(RuntimeError):
    """Raised when mpi4py is not installed/importable."""


def validate_peer(rank: int, size: int, what: str = "peer", wildcard: bool = False) -> int:
    """Validate a peer rank before it reaches the MPI library.

    mpi4py surfaces an out-of-range rank as an opaque ``MPI_ERR_RANK``
    from deep inside the library; checking here turns the same bug into
    an immediate :class:`ValueError` naming the offending value — the
    error path the conformance tests exercise without an MPI runtime.
    """
    if isinstance(rank, bool) or not isinstance(rank, (int, np.integer)):
        raise TypeError(f"{what} rank must be an integer, got {rank!r}")
    if wildcard and rank == ANY_SOURCE:
        return ANY_SOURCE
    if not 0 <= rank < size:
        raise ValueError(
            f"{what} rank {rank} out of range for communicator of size {size}"
        )
    return int(rank)


def validate_tag(tag: int, wildcard: bool = False) -> int:
    """Validate a message tag (non-negative, or ``ANY_TAG`` on receives)."""
    if isinstance(tag, bool) or not isinstance(tag, (int, np.integer)):
        raise TypeError(f"tag must be an integer, got {tag!r}")
    if wildcard and tag == ANY_TAG:
        return ANY_TAG
    if tag < 0:
        raise ValueError(f"tag must be non-negative, got {tag}")
    return int(tag)


def mpi_available() -> bool:
    """True if mpi4py can be imported in this interpreter."""
    try:
        import mpi4py  # noqa: F401
    except ImportError:
        return False
    return True


def _require_mpi():
    try:
        from mpi4py import MPI
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise MpiUnavailableError(
            "repro.transport.mpi needs mpi4py (pip install mpi4py); the "
            "in-process transport (repro.transport.inproc) has the same "
            "interface and no dependencies"
        ) from exc
    return MPI


class MpiRecvHandle:
    """Handle for a posted mpi4py receive."""

    def __init__(self, request: Any):
        self._request = request
        self._payload: Optional[np.ndarray] = None
        self._done = False

    @property
    def complete(self) -> bool:
        return self._done

    def wait(self, timeout: Optional[float] = None) -> np.ndarray:
        if not self._done:
            self._payload = self._request.wait()
            self._done = True
        return self._payload  # type: ignore[return-value]


class MpiSendHandle:
    """Handle for a posted mpi4py send."""

    def __init__(self, request: Any, nbytes: int):
        self._request = request
        self.nbytes = nbytes

    @property
    def complete(self) -> bool:
        return bool(self._request.Test())

    def wait(self, timeout: Optional[float] = None) -> None:
        self._request.wait()
        return None


class MpiEndpoint:
    """``RankEndpoint``-compatible adapter over an mpi4py communicator.

    Payloads travel via mpi4py's pickle-based lowercase API; the arrays
    the engine sends are modest halo slabs, for which the pickling
    overhead is negligible next to the wire time.  (A buffer-based
    fast path is a natural extension; the interface would not change.)
    """

    #: mpi4py snapshots (pickles) the payload inside ``isend``, so the
    #: receiver never shares the sender's buffer — senders reclaim their
    #: message buffers immediately after posting.
    zero_copy_sends = False

    def __init__(self, comm: Any = None, metrics=None):
        MPI = _require_mpi()
        self._MPI = MPI
        self.comm = comm if comm is not None else MPI.COMM_WORLD
        self.rank = self.comm.Get_rank()
        #: local message accounting, same shape as the inproc transport's
        #: per-rank stats — a thin view over the shared metrics registry
        #: when one is passed
        self.stats = TransportStats(registry=metrics, rank=self.rank)

    @property
    def size(self) -> int:
        return self.comm.Get_size()

    # -- point to point -------------------------------------------------------
    def isend(
        self, dst: int, payload: np.ndarray, tag: int = 0, copy: bool = True
    ) -> MpiSendHandle:
        dst = validate_peer(dst, self.size, "destination")
        tag = validate_tag(tag)
        # ``copy`` mirrors the inproc endpoint's interface.  mpi4py's isend
        # pickles the payload (its own snapshot) either way, so the flag
        # only changes whether a contiguous staging copy may be skipped.
        data = payload if not copy else np.ascontiguousarray(payload)
        req = self.comm.isend(data, dest=dst, tag=tag)
        self.stats.record_message(data.nbytes)
        return MpiSendHandle(req, data.nbytes)

    def send(self, dst: int, payload: np.ndarray, tag: int = 0) -> None:
        dst = validate_peer(dst, self.size, "destination")
        tag = validate_tag(tag)
        data = np.ascontiguousarray(payload)
        self.comm.send(data, dest=dst, tag=tag)
        self.stats.record_message(data.nbytes)

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> MpiRecvHandle:
        MPI = self._MPI
        src = validate_peer(src, self.size, "source", wildcard=True)
        tag = validate_tag(tag, wildcard=True)
        mpi_src = MPI.ANY_SOURCE if src == ANY_SOURCE else src
        mpi_tag = MPI.ANY_TAG if tag == ANY_TAG else tag
        return MpiRecvHandle(self.comm.irecv(source=mpi_src, tag=mpi_tag))

    def recv(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        MPI = self._MPI
        src = validate_peer(src, self.size, "source", wildcard=True)
        tag = validate_tag(tag, wildcard=True)
        mpi_src = MPI.ANY_SOURCE if src == ANY_SOURCE else src
        mpi_tag = MPI.ANY_TAG if tag == ANY_TAG else tag
        return self.comm.recv(source=mpi_src, tag=mpi_tag)

    # -- synchronization ---------------------------------------------------------
    def waitall(self, handles: Sequence[Any]) -> list[Any]:
        return [h.wait() for h in handles]

    def barrier(self, timeout: Optional[float] = None) -> None:
        self.comm.Barrier()

    def allreduce(self, value: np.ndarray | float, round_id: int = 0) -> np.ndarray:
        payload = np.atleast_1d(np.asarray(value, dtype=np.float64))
        out = np.empty_like(payload)
        self.comm.Allreduce(payload, out, op=self._MPI.SUM)
        return out
