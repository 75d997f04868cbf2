"""Checkpoint/restart for the distributed SCF.

The paper's target machine schedules jobs in multi-hour blocks on tens
of thousands of cores; a rank lost mid-run must not cost the whole SCF.
This module provides the classic N-N checkpointing scheme GPAW's restart
files implement, scaled down to this library's functional plane:

* :class:`SCFCheckpoint` — one committed snapshot of SCF state: per-rank
  interior blocks of every wave function, the mixed density history and
  potentials, plus the iteration counter and band energies.
* :class:`CheckpointStore` — one commit protocol over two media that
  only do the I/O: :class:`MemoryCheckpointStore` (in-process, used by
  the test suite and chaos runs) and :class:`FileCheckpointStore` (the
  on-disk restart-file format of docs/ROBUSTNESS.md).  A snapshot
  commits once, after every rank's write has returned, so a rank dying
  mid-checkpoint never produces a half-written restart point.
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
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.jobspec import RuntimeSpec
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


def _snapshot(marker: dict, blocks: dict[int, dict[str, np.ndarray]]) -> SCFCheckpoint:
    """A commit marker plus its rank blocks; both media read through here
    (a version-1 marker has no ``n_band_groups`` and no ``jobspec``)."""
    return SCFCheckpoint(
        iteration=marker["iteration"],
        n_domains=marker["n_domains"],
        shape=tuple(marker["shape"]),
        energies=np.asarray(marker["energies"]),
        blocks=blocks,
        n_band_groups=marker.get("n_band_groups", 1),
        jobspec=marker.get("jobspec"),
    )


class _MemoryMedium:
    """In-process medium: rank blocks in flight, and committed snapshots."""

    def __init__(self):
        self._blocks: dict[int, dict[int, dict[str, np.ndarray]]] = {}
        self._committed: dict[int, SCFCheckpoint] = {}

    def put(self, iteration: int, rank: int, fields: dict) -> None:
        copied = {k: np.array(v, copy=True) for k, v in fields.items()}
        self._blocks.setdefault(iteration, {})[rank] = copied

    def commit(self, iteration: int, marker: dict) -> None:
        self._committed[iteration] = _snapshot(marker, self._blocks.pop(iteration))

    def iterations(self) -> list[int]:
        return sorted(self._committed)

    def read(self, iteration: int) -> SCFCheckpoint:
        return self._committed[iteration]

    def drop(self, iteration: int) -> None:
        self._committed.pop(iteration, None)
        self._blocks.pop(iteration, None)

    def drop_uncommitted(self) -> set[int]:
        dropped = set(self._blocks)
        self._blocks.clear()
        return dropped


class _FileMedium:
    """``it00007_rank0.npz`` per rank and the ``it00007.json`` commit
    marker, renamed into place so it appears whole or not at all."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _rank_path(self, iteration: int, rank: int) -> Path:
        return self.root / f"it{iteration:05d}_rank{rank}.npz"

    def _marker_path(self, iteration: int) -> Path:
        return self.root / f"it{iteration:05d}.json"

    def put(self, iteration: int, rank: int, fields: dict) -> None:
        np.savez(self._rank_path(iteration, rank), **fields)

    def commit(self, iteration: int, marker: dict) -> None:
        path = self._marker_path(iteration)
        tmp = path.with_name(path.name + ".tmp")  # not matched by it*.json
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, path)

    def iterations(self) -> list[int]:
        return sorted(int(p.stem[2:]) for p in self.root.glob("it*.json"))

    def read(self, iteration: int) -> SCFCheckpoint:
        marker = json.loads(self._marker_path(iteration).read_text())
        blocks: dict[int, dict[str, np.ndarray]] = {}
        for rank in range(marker["n_domains"]):
            with np.load(self._rank_path(iteration, rank)) as npz:
                blocks[rank] = {name: npz[name] for name in CHECKPOINT_FIELDS}
        return _snapshot(marker, blocks)

    def drop(self, iteration: int) -> None:
        self._marker_path(iteration).unlink(missing_ok=True)  # invisible first
        for p in self.root.glob(f"it{iteration:05d}_rank*.npz"):
            p.unlink(missing_ok=True)

    def drop_uncommitted(self) -> set[int]:
        committed = set(self.iterations())
        dropped = set()
        for p in [*self.root.glob("it*_rank*.npz"), *self.root.glob("it*.json.tmp")]:
            it = int(re.match(r"it(\d+)", p.name)[1])
            if it not in committed:
                p.unlink(missing_ok=True)
                dropped.add(it)
        return dropped


class CheckpointStore:
    """N-N checkpoint store: one commit protocol over a storage medium.

    Each rank deposits its own blocks; the snapshot of iteration ``k``
    commits — becomes visible to :meth:`latest` — exactly once, when the
    last of its ``n_domains`` ranks registers, after that rank's own
    write has returned.  The registered ranks are kept in memory, so a
    block this store never received cannot complete a snapshot.  Each
    commit keeps the last ``runtime.checkpoint_keep`` snapshots of the
    deposit's embedded spec.  Thread-safe: the rank threads of the
    in-process transport deposit concurrently.  Deposits are timed into
    ``checkpoint_deposit_seconds`` and counted into
    ``checkpoint_bytes_total`` / ``checkpoint_commits_total``.
    """

    def __init__(self, medium, metrics):
        from repro.obs.metrics import resolve_registry

        self._medium = medium
        self.metrics = resolve_registry(metrics)
        self._m_bytes = self.metrics.counter("checkpoint_bytes_total")
        self._m_commits = self.metrics.counter("checkpoint_commits_total")
        self._m_latency = self.metrics.histogram("checkpoint_deposit_seconds")
        self._lock = threading.Lock()
        #: iteration -> (marker fixed by its first deposit, ranks registered)
        self._pending: dict[int, tuple[dict, set[int]]] = {}

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
        missing = set(CHECKPOINT_FIELDS) - set(fields)
        if missing:
            raise ValueError(f"checkpoint deposit missing fields {sorted(missing)}")
        if not 0 <= rank < n_domains:
            raise ValueError(f"rank {rank} outside the {n_domains} depositing ranks")
        t0 = time.perf_counter()
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
        with self._lock:
            if iteration not in self._pending:
                # a re-deposited iteration is withdrawn before any of
                # its new blocks land, so old and new never mix
                self._medium.drop(iteration)
                self._pending[iteration] = (marker, set())
            slot = self._pending[iteration]
            first, ranks = slot
            for key in ("n_domains", "n_band_groups", "shape"):
                if first[key] != marker[key]:
                    raise ValueError(
                        f"iteration {iteration}: deposits disagree on {key} "
                        f"({first[key]} vs {marker[key]})"
                    )
        self._medium.put(iteration, rank, fields)
        with self._lock:
            ranks.add(rank)
            # a slot that discard_pending dropped meanwhile never commits
            committed = (
                self._pending.get(iteration) is slot and len(ranks) == n_domains
            )
            if committed:
                del self._pending[iteration]
                self._medium.commit(iteration, first)
                runtime = first.get("jobspec", {}).get("runtime", {})
                keep = runtime.get("checkpoint_keep", RuntimeSpec.checkpoint_keep)
                for it in self._medium.iterations()[:-keep]:
                    self._medium.drop(it)
        self._m_bytes.inc(sum(arr.nbytes for arr in fields.values()))
        self._m_latency.observe(time.perf_counter() - t0)
        if committed:
            self._m_commits.inc()
        return committed

    def iterations(self) -> list[int]:
        with self._lock:
            return self._medium.iterations()

    def latest(self) -> SCFCheckpoint | None:
        with self._lock:
            its = self._medium.iterations()
            return self._medium.read(its[-1]) if its else None

    def load(self, iteration: int) -> SCFCheckpoint:
        with self._lock:
            if iteration not in self._medium.iterations():
                raise KeyError(f"no committed checkpoint for iteration {iteration}")
            return self._medium.read(iteration)

    def discard_pending(self) -> int:
        """Drop uncommitted deposits, on disk also a dead process's;
        returns how many iterations.  Recovery calls it before a retry."""
        with self._lock:
            dropped = set(self._pending) | self._medium.drop_uncommitted()
            self._pending.clear()
            return len(dropped)


class MemoryCheckpointStore(CheckpointStore):
    """Checkpoints held in process (the test suite and chaos runs)."""

    def __init__(self, metrics=None):
        super().__init__(_MemoryMedium(), metrics)


class FileCheckpointStore(CheckpointStore):
    """Checkpoints on disk under ``root``, readable by a later process."""

    def __init__(self, root: str | Path, metrics=None):
        super().__init__(_FileMedium(root), metrics)

    @classmethod
    def from_spec(cls, spec, root: str | Path, metrics=None) -> "FileCheckpointStore":
        """Retention follows each deposit's embedded spec; ``spec`` is not read."""
        return cls(root, metrics=metrics)
