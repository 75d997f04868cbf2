"""A shape/dtype-keyed buffer arena for zero-allocation steady state.

The paper's hot path applies one stencil to thousands of grids per SCF
iteration.  At NumPy level the avoidable cost is allocator traffic: fresh
padded blocks, output blocks, kernel scratch and halo message buffers on
every call.  :class:`Workspace` is a small pool that the engine and the
halo pack/unpack borrow those buffers from — after one warm-up pass the
pool holds every buffer the schedule needs and
steady-state iterations allocate nothing (asserted by the allocation
counter in the tests).

Design notes
------------

* **Keyed free lists.**  Buffers are pooled by exact ``(shape, dtype)``.
  The FD schedules are shape-periodic — every iteration borrows the same
  handful of shapes — so exact matching gives a 100% hit rate after
  warm-up without any size-class bookkeeping.
* **Thread-safe.**  The functional engine runs its ranks as threads in
  one process; a single arena may be shared by all of them (that is what
  lets a halo buffer be released by the *receiving* rank and re-borrowed
  by any sender).  ``borrow``/``release`` are a mutex-guarded list pop /
  append — nanoseconds next to a grid-sized memcpy.
* **No zeroing.**  Borrowed buffers contain stale data (``np.empty``
  semantics); every caller fully overwrites what it borrows.
* **Accounting.**  ``allocations`` counts real ``np.empty`` calls,
  ``reuses`` counts pool hits; the zero-allocation property is asserted
  as "``allocations`` stops growing after warm-up".
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

_Key = tuple[tuple[int, ...], np.dtype]


class Workspace:
    """A thread-safe pool of reusable ndarray buffers.

    >>> ws = Workspace()
    >>> a = ws.borrow((4, 4), np.float64)   # allocates
    >>> ws.release(a)
    True
    >>> b = ws.borrow((4, 4), np.float64)   # reuses the same memory
    >>> b is a
    True
    >>> ws.allocations, ws.reuses
    (1, 1)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: dict[_Key, list[np.ndarray]] = {}
        self._issued: dict[int, _Key] = {}
        self._allocations = 0
        self._reuses = 0

    # -- core API ----------------------------------------------------------
    def borrow(self, shape: tuple[int, ...], dtype: "np.typing.DTypeLike" = np.float64) -> np.ndarray:
        """Return a buffer of exactly ``shape``/``dtype`` (stale contents).

        Pops from the pool when a match is free, otherwise allocates.  The
        buffer is owned by the caller until :meth:`release`.
        """
        key: _Key = (tuple(shape), np.dtype(dtype))
        with self._lock:
            stack = self._free.get(key)
            if stack:
                buf = stack.pop()
                self._reuses += 1
            else:
                buf = np.empty(key[0], dtype=key[1])
                self._allocations += 1
            self._issued[id(buf)] = key
            return buf

    def release(self, buf: np.ndarray) -> bool:
        """Return a borrowed buffer to the pool.

        Returns ``True`` if the buffer was issued by this arena (and is now
        pooled again), ``False`` otherwise — unknown arrays are ignored, so
        callers may release unconditionally (e.g. a received halo payload
        that may or may not have come from the arena).
        """
        with self._lock:
            key = self._issued.pop(id(buf), None)
            if key is None:
                return False
            self._free.setdefault(key, []).append(buf)
            return True

    @contextmanager
    def borrowing(
        self, shape: tuple[int, ...], dtype: "np.typing.DTypeLike" = np.float64
    ) -> Iterator[np.ndarray]:
        """``with ws.borrowing(shape) as buf: ...`` — release on exit."""
        buf = self.borrow(shape, dtype)
        try:
            yield buf
        finally:
            self.release(buf)

    # -- accounting --------------------------------------------------------
    @property
    def allocations(self) -> int:
        """Number of real ``np.empty`` allocations performed so far."""
        return self._allocations

    @property
    def reuses(self) -> int:
        """Number of borrows served from the pool."""
        return self._reuses

    @property
    def n_free(self) -> int:
        """Buffers currently sitting in the pool."""
        with self._lock:
            return sum(len(v) for v in self._free.values())

    @property
    def n_issued(self) -> int:
        """Buffers currently borrowed and not yet released."""
        with self._lock:
            return len(self._issued)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace(allocations={self._allocations}, "
            f"reuses={self._reuses}, free={self.n_free}, "
            f"issued={self.n_issued})"
        )
