"""The 3D torus (or mesh) point-to-point network.

:class:`TorusTopology` is pure geometry: coordinates, neighbours,
dimension-ordered routes, hop distances, with or without wrap-around links.

:class:`TorusNetwork` puts the geometry on the DES: every *directed* link
(node, direction) is a capacity-1 :class:`~repro.des.Resource`, and a
transfer holds every link of its route for the whole message duration
(a wormhole/cut-through idealization — exact for the single-hop
nearest-neighbour traffic the stencil exchange generates, and a reasonable
contention model for the rare multi-hop case).  Links are acquired in a
global canonical order, which makes concurrent transfers provably
deadlock-free (a total order on resources admits no wait cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable

from typing import TYPE_CHECKING, Optional

from repro.des import Resource, Simulator
from repro.des.core import Event
from repro.machine.spec import TorusSpec
from repro.util.validation import check_shape3

if TYPE_CHECKING:
    from repro.obs.spans import SpanTracer

#: The six axial directions: (dimension, step).
DIRECTIONS: tuple[tuple[int, int], ...] = (
    (0, +1), (0, -1), (1, +1), (1, -1), (2, +1), (2, -1),
)


@dataclass(frozen=True)
class TorusTopology:
    """Geometry of a 3D torus/mesh of nodes."""

    shape: tuple[int, int, int]
    torus: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", check_shape3(self.shape, "shape"))

    @property
    def n_nodes(self) -> int:
        sx, sy, sz = self.shape
        return sx * sy * sz

    # -- coordinate mapping ------------------------------------------------
    def coords(self, node: int) -> tuple[int, int, int]:
        """Node id -> (x, y, z), x varying slowest (C order)."""
        sx, sy, sz = self.shape
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside 0..{self.n_nodes - 1}")
        x, rem = divmod(node, sy * sz)
        y, z = divmod(rem, sz)
        return (x, y, z)

    def node_at(self, coords: Iterable[int]) -> int:
        """(x, y, z) -> node id; coordinates are wrapped on a torus."""
        x, y, z = coords
        sx, sy, sz = self.shape
        if self.torus:
            x, y, z = x % sx, y % sy, z % sz
        if not (0 <= x < sx and 0 <= y < sy and 0 <= z < sz):
            raise ValueError(f"coords {(x, y, z)} outside mesh {self.shape}")
        return (x * sy + y) * sz + z

    def neighbor(self, node: int, dim: int, step: int) -> int | None:
        """The neighbour of ``node`` one step along ``dim``.

        Returns None at a mesh boundary (no wrap-around link exists).
        """
        if dim not in (0, 1, 2):
            raise ValueError(f"dim must be 0, 1 or 2, got {dim}")
        if step not in (-1, +1):
            raise ValueError(f"step must be -1 or +1, got {step}")
        c = list(self.coords(node))
        c[dim] += step
        size = self.shape[dim]
        if not self.torus and not 0 <= c[dim] < size:
            return None
        c[dim] %= size
        return self.node_at(c)

    # -- distances and routes -----------------------------------------------
    def _axis_steps(self, a: int, b: int, dim: int) -> list[int]:
        """Signed unit steps along ``dim`` from a's to b's coordinate."""
        ca, cb = self.coords(a)[dim], self.coords(b)[dim]
        size = self.shape[dim]
        delta = cb - ca
        if self.torus:
            # choose the shorter way around; ties go positive
            if delta > size // 2 or -delta > (size - 1) // 2:
                delta -= size if delta > 0 else -size
        step = 1 if delta > 0 else -1
        return [step] * abs(delta)

    def hop_distance(self, a: int, b: int) -> int:
        """Minimal number of links between two nodes."""
        return sum(len(self._axis_steps(a, b, d)) for d in range(3))

    def route(self, src: int, dst: int) -> list[tuple[int, int, int]]:
        """Dimension-ordered route: list of (node, dim, step) hops.

        Each entry is a directed link leaving ``node`` along ``dim`` in
        direction ``step``; the route visits X hops first, then Y, then Z —
        the deterministic routing real BG/P uses by default.
        """
        hops: list[tuple[int, int, int]] = []
        here = src
        for dim in range(3):
            for step in self._axis_steps(src, dst, dim):
                hops.append((here, dim, step))
                nxt = self.neighbor(here, dim, step)
                assert nxt is not None, "route stepped off the mesh"
                here = nxt
        assert here == dst
        return hops

    def max_hops(self) -> int:
        """Network diameter in links."""
        if self.torus:
            return sum(s // 2 for s in self.shape)
        return sum(s - 1 for s in self.shape)


class TorusNetwork:
    """DES-backed torus: transfer processes with link contention."""

    def __init__(
        self,
        sim: Simulator,
        topology: TorusTopology,
        spec: TorusSpec,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.spec = spec
        self.tracer = tracer
        #: directed link resources, created lazily: (node, dim, step) -> Resource
        self._links: dict[tuple[int, int, int], Resource] = {}
        #: total bytes injected per node (for comm-volume accounting)
        self.bytes_sent: dict[int, int] = {}

    def link(self, node: int, dim: int, step: int) -> Resource:
        """The capacity-1 resource of one directed link."""
        key = (node, dim, step)
        res = self._links.get(key)
        if res is None:
            res = Resource(self.sim, capacity=1, name=f"link{key}")
            self._links[key] = res
        return res

    def transfer(self, src: int, dst: int, nbytes: float) -> Generator[Event, object, None]:
        """Process: move ``nbytes`` from ``src`` to ``dst``.

        Holds every link of the dimension-ordered route for the message
        duration.  Links are *acquired* in canonical (sorted) order so that
        concurrent transfers cannot deadlock; they are all released when the
        message completes.
        """
        if src == dst:
            # Self-send: a memcpy at memory bandwidth, no links involved.
            yield self.sim.timeout(self.spec.message_overhead)
            return
        route = self.topology.route(src, dst)
        duration = self.spec.message_time(nbytes, hops=len(route))
        links = [self.link(*hop) for hop in sorted(route)]
        for link in links:
            yield link.acquire()
        start = self.sim.now
        try:
            yield self.sim.timeout(duration)
            self.bytes_sent[src] = self.bytes_sent.get(src, 0) + int(nbytes)
        finally:
            for link in links:
                link.release()
        if self.tracer is not None:
            for node, dim, step in route:
                sign = "+" if step > 0 else "-"
                self.tracer.record(
                    f"link{node}.{sign}{'xyz'[dim]}", start, self.sim.now,
                    f"{src}->{dst}",
                )
