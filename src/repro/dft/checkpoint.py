"""Checkpoint/restart for the distributed SCF.

The paper's target machine schedules jobs in multi-hour blocks on tens
of thousands of cores; a rank lost mid-run must not cost the whole SCF.
This module provides the classic N-N checkpointing scheme GPAW's restart
files implement, scaled down to this library's functional plane:

* :class:`SCFCheckpoint` — one committed snapshot of SCF state: per-rank
  interior blocks of every wave function, the mixed density history and
  potentials, plus the iteration counter and band energies.
* Stores — :class:`MemoryCheckpointStore` (in-process, used by the test
  suite and chaos runs) and :class:`FileCheckpointStore` (one ``.npz``
  per rank per snapshot, the on-disk restart-file format described in
  docs/ROBUSTNESS.md).  Both commit *atomically*: a snapshot becomes
  visible only once every rank has deposited its block, so a rank dying
  mid-checkpoint can never produce a half-written restart point.
* :func:`redistribute_blocks` — pure-numpy execution of
  :func:`repro.grid.redistribute.transfer_plan`, so a checkpoint written
  by ``N`` ranks can be resumed by ``M`` ranks (shrink-to-fewer-ranks
  recovery after a node loss: the schedule plan is recompiled for the
  new layout and every field is re-sliced through the transfer plan).
* :func:`regroup_checkpoint` — the band-group-aware generalization: a
  snapshot written by ``nb`` band groups over ``P`` ranks becomes valid
  initial state for ``nb'`` groups over ``P'`` ranks.  Domains move
  through the same transfer plan per group; the band axis follows
  :func:`repro.grid.redistribute.band_regroup_plan`.  Pure numpy, so
  recovery can regroup after the writing ranks are gone.

Checkpoint traffic uses the ``CHECKPOINT_TAG_BASE`` tag space reserved
in :mod:`repro.transport.errors` when a store routes blocks over a
transport; the in-process stores deposit directly (each rank writes its
own block — N-N checkpointing — so no gather bottleneck exists).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.grid.bandgroups import BandGroups
from repro.grid.decompose import Decomposition
from repro.grid.redistribute import Transfer, band_regroup_plan, transfer_plan

#: fields every rank deposits per snapshot
CHECKPOINT_FIELDS = ("states", "rho_old", "v_h", "v_xc")

#: bump when the snapshot layout changes (2: snapshots embed the
#: serialized JobSpec; version-1 snapshots still load, without one)
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class SCFCheckpoint:
    """One committed snapshot of distributed SCF state.

    ``blocks[rank]`` maps each of :data:`CHECKPOINT_FIELDS` to the
    rank's *interior* array (halo shells are recomputed on resume):
    ``states`` is ``(n_bands, *block_shape)``, the rest ``block_shape``.
    """

    iteration: int
    n_domains: int
    shape: tuple[int, int, int]
    energies: np.ndarray
    blocks: dict[int, dict[str, np.ndarray]]
    #: band groups of the run that wrote the snapshot; with ``nb > 1``
    #: ``n_domains`` counts *all* ranks of the 2D grid x band layout and
    #: each rank's ``states`` stack holds only its group's bands
    n_band_groups: int = 1
    #: serialized :class:`~repro.core.jobspec.JobSpec` of the writing run
    #: (``JobSpec.to_dict()``).  Resume validates it with
    #: :func:`~repro.core.jobspec.check_restart_compatible` so a
    #: mismatched restart is a typed error instead of silent state
    #: corruption; a snapshot without one (version 1) is rejected.
    jobspec: dict | None = None


def _interior_slices(t: Transfer, decomp: Decomposition, rank: int):
    """Global slab -> slab inside the rank's *interior* (no halo) block."""
    block = decomp.block_slices(rank)
    return tuple(
        slice(g.start - b.start, g.stop - b.start)
        for g, b in zip(t.global_slices, block)
    )


def redistribute_blocks(
    blocks: dict[int, np.ndarray],
    old: Decomposition,
    new: Decomposition,
) -> dict[int, np.ndarray]:
    """Re-slice per-rank interior blocks from layout ``old`` to ``new``.

    Pure numpy — no transport, no live ranks — because this runs during
    *recovery*, when the old ranks may no longer exist.  Arrays may carry
    leading axes (e.g. a band axis); only the trailing three dimensions
    are grid dimensions.  This is the shrink path: a 4-rank checkpoint
    becomes valid 2-rank initial state by executing
    :func:`~repro.grid.redistribute.transfer_plan` as slab copies.
    """
    if set(blocks) != set(range(old.n_domains)):
        raise ValueError(
            f"need a block for each of {old.n_domains} old ranks, "
            f"got ranks {sorted(blocks)}"
        )
    plan = transfer_plan(old, new)
    lead = blocks[0].shape[:-3]
    out = {
        dst: np.zeros(lead + new.block_shape(dst), dtype=blocks[0].dtype)
        for dst in range(new.n_domains)
    }
    for t in plan:
        src_sl = (Ellipsis,) + _interior_slices(t, old, t.src)
        dst_sl = (Ellipsis,) + _interior_slices(t, new, t.dst)
        out[t.dst][dst_sl] = blocks[t.src][src_sl]
    return out


def regroup_checkpoint(
    ckpt: SCFCheckpoint,
    grid,
    n_ranks: int,
    n_band_groups: int = 1,
) -> SCFCheckpoint:
    """Re-slice a committed snapshot onto a new ``(ranks, groups)`` layout.

    This is the shrink/regroup restart: a checkpoint deposited by ``nb``
    band groups over ``P`` ranks becomes valid initial state for ``nb'``
    groups over ``P'`` ranks (typically ``nb' <= nb`` on fewer ranks
    after a node loss, but any layout over the same grid and band count
    works).  Three pure-numpy moves, no transport:

    * each old group's band stack is re-sliced from the old domain
      decomposition to the new one (:func:`redistribute_blocks` carries
      the band axis as a leading dimension);
    * the band axis is re-gathered per :func:`~repro.grid.redistribute
      .band_regroup_plan`, so every new rank stacks exactly its group's
      contiguous bands;
    * the scalar fields (density history, potentials) are identical
      across groups by construction, so group 0's blocks are re-sliced
      once and replicated into every new group.

    The result keeps the writing run's iteration, energies and embedded
    jobspec — resume re-validates those exactly as for a same-layout
    snapshot.
    """
    old_nb = ckpt.n_band_groups
    if ckpt.n_domains % old_nb:
        raise ValueError(
            f"corrupt checkpoint: {ckpt.n_domains} ranks not divisible "
            f"by {old_nb} band groups"
        )
    old_rpg = ckpt.n_domains // old_nb
    bands_per_old = ckpt.blocks[0]["states"].shape[0]
    n_bands = bands_per_old * old_nb
    # the two layouts raise the typed divisibility errors (bands % nb',
    # ranks % nb') before any array moves
    old_lay = BandGroups(n_ranks=ckpt.n_domains, n_bands=n_bands, n_groups=old_nb)
    new_lay = BandGroups(n_ranks=n_ranks, n_bands=n_bands, n_groups=n_band_groups)
    old_decomp = Decomposition(grid, old_rpg)
    new_decomp = Decomposition(grid, new_lay.ranks_per_group)
    # domain re-slice: one redistribution per old group for the band
    # stacks, one (group 0) for the shared scalars
    states_by_group = [
        redistribute_blocks(
            {
                d: ckpt.blocks[old_lay.rank_of(g, d)]["states"]
                for d in range(old_rpg)
            },
            old_decomp,
            new_decomp,
        )
        for g in range(old_nb)
    ]
    scalars = {
        name: redistribute_blocks(
            {d: ckpt.blocks[d][name] for d in range(old_rpg)},
            old_decomp,
            new_decomp,
        )
        for name in ("rho_old", "v_h", "v_xc")
    }
    moves = band_regroup_plan(old_lay, new_lay)
    blocks: dict[int, dict[str, np.ndarray]] = {}
    for rank in range(n_ranks):
        g = new_lay.group_of(rank)
        d = new_lay.domain_of(rank)
        stack = np.stack([
            states_by_group[m.src_group][d][m.src_index]
            for m in moves
            if m.dst_group == g
        ])
        blocks[rank] = {"states": stack}
        for name, per_domain in scalars.items():
            blocks[rank][name] = per_domain[d].copy()
    return SCFCheckpoint(
        iteration=ckpt.iteration,
        n_domains=n_ranks,
        shape=ckpt.shape,
        energies=ckpt.energies,
        blocks=blocks,
        n_band_groups=n_band_groups,
        jobspec=ckpt.jobspec,
    )


def _validate_payload(fields: dict[str, np.ndarray]) -> None:
    missing = set(CHECKPOINT_FIELDS) - set(fields)
    if missing:
        raise ValueError(f"checkpoint deposit missing fields {sorted(missing)}")


class _DepositTelemetry:
    """Shared store instrumentation: bytes, latency, commits.

    Both stores time every :meth:`deposit` into the
    ``checkpoint_deposit_seconds`` histogram, count the deposited payload
    into ``checkpoint_bytes_total`` and count committed snapshots into
    ``checkpoint_commits_total`` — on the registry passed at construction
    (the null registry by default, so untelemetered stores pay only the
    no-op calls).
    """

    def _init_metrics(self, metrics) -> None:
        from repro.obs.metrics import resolve_registry

        self.metrics = resolve_registry(metrics)
        self._m_bytes = self.metrics.counter("checkpoint_bytes_total")
        self._m_commits = self.metrics.counter("checkpoint_commits_total")
        self._m_latency = self.metrics.histogram("checkpoint_deposit_seconds")

    def _record_deposit(
        self, fields: dict[str, np.ndarray], elapsed: float, committed: bool
    ) -> None:
        self._m_bytes.inc(sum(arr.nbytes for arr in fields.values()))
        self._m_latency.observe(elapsed)
        if committed:
            self._m_commits.inc()


class MemoryCheckpointStore(_DepositTelemetry):
    """In-process checkpoint store with atomic commit.

    Each rank deposits its own blocks (N-N checkpointing); a snapshot for
    iteration ``k`` is committed — becomes visible to :meth:`latest` —
    only once all ``n_domains`` ranks have deposited.  Thread-safe: the
    rank threads of the in-process transport deposit concurrently.
    """

    #: committed snapshots retained; older ones are dropped on commit
    keep = 2

    def __init__(self, metrics=None):
        self._init_metrics(metrics)
        self._lock = threading.Lock()
        self._pending: dict[int, dict] = {}  # iteration -> partial snapshot
        self._committed: dict[int, SCFCheckpoint] = {}

    def deposit(
        self,
        iteration: int,
        rank: int,
        n_domains: int,
        shape: tuple[int, int, int],
        energies: np.ndarray,
        fields: dict[str, np.ndarray],
        n_band_groups: int = 1,
        jobspec: dict | None = None,
    ) -> bool:
        """Deposit one rank's blocks; True if this commits the snapshot."""
        _validate_payload(fields)
        t0 = time.perf_counter()
        copied = {k: np.array(v, copy=True) for k, v in fields.items()}
        with self._lock:
            slot = self._pending.setdefault(
                iteration,
                {
                    "n_domains": n_domains,
                    "n_band_groups": n_band_groups,
                    "shape": tuple(shape),
                    "energies": np.array(energies, copy=True),
                    "jobspec": jobspec,
                    "blocks": {},
                },
            )
            if slot["n_domains"] != n_domains:
                raise ValueError(
                    f"iteration {iteration}: deposits disagree on rank count "
                    f"({slot['n_domains']} vs {n_domains})"
                )
            if slot["n_band_groups"] != n_band_groups:
                raise ValueError(
                    f"iteration {iteration}: deposits disagree on band "
                    f"groups ({slot['n_band_groups']} vs {n_band_groups})"
                )
            slot["blocks"][rank] = copied
            committed = len(slot["blocks"]) == n_domains
            if committed:
                ckpt = SCFCheckpoint(
                    iteration=iteration,
                    n_domains=n_domains,
                    shape=slot["shape"],
                    energies=slot["energies"],
                    blocks=slot["blocks"],
                    n_band_groups=slot["n_band_groups"],
                    jobspec=slot["jobspec"],
                )
                del self._pending[iteration]
                self._committed[iteration] = ckpt
                for it in sorted(self._committed)[: -self.keep]:
                    del self._committed[it]
        self._record_deposit(fields, time.perf_counter() - t0, committed)
        return committed

    def latest(self) -> SCFCheckpoint | None:
        with self._lock:
            if not self._committed:
                return None
            return self._committed[max(self._committed)]

    def load(self, iteration: int) -> SCFCheckpoint:
        with self._lock:
            if iteration not in self._committed:
                raise KeyError(f"no committed checkpoint for iteration {iteration}")
            return self._committed[iteration]

    def discard_pending(self) -> int:
        """Drop partial (uncommitted) deposits; returns how many slots.

        Called by recovery before a retry: a failed attempt may have left
        half-deposited iterations that must not mix with the rerun's.
        """
        with self._lock:
            n = len(self._pending)
            self._pending.clear()
            return n


class FileCheckpointStore(_DepositTelemetry):
    """On-disk checkpoint store: one ``.npz`` per rank per snapshot.

    Layout under ``root``::

        it00007_rank0.npz   # fields of rank 0 at iteration 7
        it00007_rank1.npz
        it00007.json        # commit marker, written last (atomic commit)

    The marker carries the snapshot metadata; a snapshot without its
    marker is invisible to :meth:`latest` — exactly the crash-consistency
    rule real restart writers follow.
    """

    def __init__(self, root: str | Path, keep: int = 2, metrics=None):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self._init_metrics(metrics)
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, spec, root: str | Path, metrics=None) -> "FileCheckpointStore":
        """Retention window from ``spec.runtime.checkpoint_keep``."""
        return cls(root, keep=spec.runtime.checkpoint_keep, metrics=metrics)

    def _rank_path(self, iteration: int, rank: int) -> Path:
        return self.root / f"it{iteration:05d}_rank{rank}.npz"

    def _marker_path(self, iteration: int) -> Path:
        return self.root / f"it{iteration:05d}.json"

    def deposit(
        self,
        iteration: int,
        rank: int,
        n_domains: int,
        shape: tuple[int, int, int],
        energies: np.ndarray,
        fields: dict[str, np.ndarray],
        n_band_groups: int = 1,
        jobspec: dict | None = None,
    ) -> bool:
        _validate_payload(fields)
        t0 = time.perf_counter()
        np.savez(self._rank_path(iteration, rank), **fields)
        with self._lock:
            have = [
                r for r in range(n_domains)
                if self._rank_path(iteration, r).exists()
            ]
            committed = len(have) == n_domains
            if committed:
                marker = {
                    "version": CHECKPOINT_VERSION,
                    "iteration": iteration,
                    "n_domains": n_domains,
                    "n_band_groups": n_band_groups,
                    "shape": list(shape),
                    "energies": [float(e) for e in np.atleast_1d(energies)],
                }
                if jobspec is not None:
                    marker["jobspec"] = jobspec
                self._marker_path(iteration).write_text(json.dumps(marker))
                self._prune()
        self._record_deposit(fields, time.perf_counter() - t0, committed)
        return committed

    def _prune(self) -> None:
        committed = sorted(self._iterations_unlocked())
        for it in committed[: -self.keep]:
            self._marker_path(it).unlink(missing_ok=True)
            for p in self.root.glob(f"it{it:05d}_rank*.npz"):
                p.unlink(missing_ok=True)

    def _iterations_unlocked(self) -> list[int]:
        return sorted(
            int(p.stem[2:]) for p in self.root.glob("it*.json")
        )

    def iterations(self) -> list[int]:
        with self._lock:
            return self._iterations_unlocked()

    def latest(self) -> SCFCheckpoint | None:
        its = self.iterations()
        if not its:
            return None
        return self.load(its[-1])

    def load(self, iteration: int) -> SCFCheckpoint:
        marker_path = self._marker_path(iteration)
        if not marker_path.exists():
            raise KeyError(f"no committed checkpoint for iteration {iteration}")
        marker = json.loads(marker_path.read_text())
        blocks: dict[int, dict[str, np.ndarray]] = {}
        for rank in range(marker["n_domains"]):
            with np.load(self._rank_path(iteration, rank)) as npz:
                blocks[rank] = {name: npz[name] for name in CHECKPOINT_FIELDS}
        return SCFCheckpoint(
            iteration=marker["iteration"],
            n_domains=marker["n_domains"],
            shape=tuple(marker["shape"]),
            energies=np.asarray(marker["energies"]),
            blocks=blocks,
            n_band_groups=marker.get("n_band_groups", 1),
            jobspec=marker.get("jobspec"),
        )

    def discard_pending(self) -> int:
        """Remove rank files of snapshots that never got their marker."""
        with self._lock:
            committed = set(self._iterations_unlocked())
            n = 0
            for p in self.root.glob("it*_rank*.npz"):
                it = int(p.stem.split("_")[0][2:])
                if it not in committed:
                    p.unlink(missing_ok=True)
                    n += 1
            return n
