"""Delegating timing proxies the benchmark places on the program's seams.

Each proxy forwards to the wrapped object unchanged and records one span
per call into a :class:`tracing.SpanRecorder`.  They import nothing from
``repro``: they only rely on the surfaces the program already publishes —
the transport surface ``run_ranks`` consumes (``size`` / ``endpoint`` /
``abort`` / ``stats``, as ``FaultyTransport`` presents it), the endpoint
methods the engines call, ``DistributedStencil.apply(on_step=…)``, the
checkpoint store's ``deposit`` and the Poisson solver's rank program.
"""

from __future__ import annotations

from time import perf_counter as clock


class _TimedRecv:
    """Receive handle whose ``wait`` is recorded as time blocked."""

    __slots__ = ("_inner", "_add")

    def __init__(self, inner, add):
        self._inner = inner
        self._add = add

    @property
    def complete(self):
        return self._inner.complete

    def wait(self, timeout=None):
        t0 = clock()
        payload = self._inner.wait(timeout)
        self._add("transport.wait", t0, clock())
        return payload


class TimedEndpoint:
    """A ``RankEndpoint``-compatible wrapper recording every call."""

    def __init__(self, inner, recorder):
        self.inner = inner
        self.rank = inner.rank
        self._add = recorder.add

    @property
    def size(self):
        return self.inner.size

    @property
    def zero_copy_sends(self):
        # keep the engine on the same buffer-ownership path as untraced
        return getattr(self.inner, "zero_copy_sends", False)

    def isend(self, dst, payload, tag=0, copy=True):
        t0 = clock()
        handle = self.inner.isend(dst, payload, tag=tag, copy=copy)
        self._add("transport.send", t0, clock(), handle.nbytes)
        return handle

    def send(self, dst, payload, tag=0):
        self.isend(dst, payload, tag).wait()

    def irecv(self, src=-1, tag=-1):
        return _TimedRecv(self.inner.irecv(src=src, tag=tag), self._add)

    def recv(self, src=-1, tag=-1, timeout=None):
        t0 = clock()
        payload = self.inner.recv(src=src, tag=tag, timeout=timeout)
        self._add("transport.wait", t0, clock())
        return payload

    def _take(self, src, tag, timeout):
        # GroupEndpoint.recv reaches through to this
        return self.recv(src, tag, timeout)

    def waitall(self, handles):
        return [h.wait() for h in handles]

    def barrier(self, timeout=None):
        t0 = clock()
        self.inner.barrier(timeout=timeout)
        self._add("transport.wait", t0, clock())

    def allreduce(self, value, round_id=0):
        t0 = clock()
        out = self.inner.allreduce(value, round_id=round_id)
        self._add("transport.allreduce", t0, clock())
        return out


class TimedTransport:
    """Wraps a whole transport so every endpoint records into ``recorder``."""

    def __init__(self, inner, recorder):
        self.inner = inner
        self.recorder = recorder

    @property
    def size(self):
        return self.inner.size

    @property
    def stats(self):
        return self.inner.stats

    @property
    def default_timeout(self):
        return self.inner.default_timeout

    def endpoint(self, rank):
        return TimedEndpoint(self.inner.endpoint(rank), self.recorder)

    def abort(self, dead_rank=None):
        self.inner.abort(dead_rank)


class _Delegating:
    """Forward everything the proxy does not time to the wrapped object."""

    def __init__(self, inner, recorder):
        self._inner = inner
        self._add = recorder.add

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedCheckpointStore(_Delegating):
    """Records each ``deposit`` with its payload bytes."""

    def deposit(self, *args, **kwargs):
        fields = kwargs.get("fields") or {}
        nbytes = sum(a.nbytes for a in fields.values())
        t0 = clock()
        committed = self._inner.deposit(*args, **kwargs)
        self._add("checkpoint.deposit", t0, clock(), nbytes)
        return committed


_STEP_NAMES: dict[type, str] = {}


class TimedEngine(_Delegating):
    """Records ``apply`` and, through ``on_step``, every interpreted step."""

    def _on_step(self, step, worker, start, end):
        kind = type(step)
        name = _STEP_NAMES.get(kind)
        if name is None:
            name = _STEP_NAMES[kind] = "step." + kind.__name__
        self._add(name, start, end)

    def apply(self, ep, grids, *args, on_step=None, **kwargs):
        t0 = clock()
        out = self._inner.apply(
            ep, grids, *args, on_step=on_step or self._on_step, **kwargs
        )
        self._add("engine.apply", t0, clock())
        return out


class TimedPoisson(_Delegating):
    """Records the per-rank Jacobi solve the SCF loop calls."""

    def _rank_solve(self, ep, rho_blocks):
        t0 = clock()
        out = self._inner._rank_solve(ep, rho_blocks)
        self._add("poisson.solve", t0, clock())
        return out
