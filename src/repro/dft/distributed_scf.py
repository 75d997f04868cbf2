"""A fully distributed Kohn-Sham SCF on top of the FD engine.

This is the library's capstone composition — the workload the paper's
introduction describes, executed end to end on the functional plane:

* every rank holds the same subset of every wave function (section IV's
  constraint, live in code),
* every Hamiltonian application routes the kinetic stencil through the
  distributed FD engine (halo exchanges under any of the paper's four
  schedules),
* orthogonalization and subspace diagonalization reduce band matrices
  with allreduces (the operation that *forces* the shared decomposition),
* the Hartree potential comes from the distributed conjugate-gradient
  Poisson solver (one halo exchange + one allreduce per iteration),
* the band update is the same preconditioned residual minimization as the
  sequential :class:`~repro.dft.rmm_diis.RmmDiis` — kinetic
  preconditioner sweeps included, each one a distributed stencil
  application.

The whole loop is deterministic and rank-count-invariant up to reduction
round-off, so tests can pin it against the sequential SCF.

``n_band_groups > 1`` switches the run to the 2D **grid x band**
decomposition that breaks section IV's constraint: the ``P`` ranks split
into ``nb`` groups, each owning ``G/nb`` wave functions on a
``P/nb``-domain decomposition (:class:`repro.grid.bandgroups.BandGroups`
maps ranks to ``(group, domain)``).  Halo traffic stays inside a group
(over a :class:`~repro.transport.inproc.GroupEndpoint` window); group 0
alone solves Poisson and the band-axis sum hands its ``v_h`` to the
other groups; the subspace steps execute the compiled
:class:`~repro.core.schedule.BandSchedulePlan` through
:class:`~repro.dft.band_ortho.BandRingExecutor` — blocked GEMMs on ring-
circulated band blocks, the same plan the DES replay and the
:class:`~repro.core.planner.Planner` price.  Cross-group
reductions are a global all-reduce of zero-padded band-matrix strips,
a deterministic :func:`~repro.dft.band_ortho.band_axis_sum` for the
density and ``v_h``, and group-0-only contributions for scalar grid sums
(every group holds the identical density, so one group speaks for all).
``n_band_groups=1`` is bit-for-bit the 1D code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
# loaded with the module, not by the first run's np.random access
from numpy.random import default_rng

from repro.core.engine import DistributedStencil
from repro.core.jobspec import (
    JobSpec,
    SpecMismatchError,
    check_restart_compatible,
)
from repro.core.schedule import compile_band_schedule
from repro.core.workspace import Workspace
from repro.dft.band_ortho import BandRingExecutor, band_axis_sum
from repro.dft.checkpoint import SCFCheckpoint, regroup_checkpoint
from repro.dft.distributed import DistributedPoissonSolver
from repro.dft.xc import lda_energy, lda_potential
from repro.grid.array import LocalGrid, gather, scatter
from repro.grid.bandgroups import BandGroups
from repro.grid.decompose import Decomposition
from repro.grid.halo import HaloSpec
from repro.stencil.coefficients import laplacian_coefficients
from repro.transport.inproc import GroupEndpoint, RankEndpoint, run_ranks


def _lowest_pencil_vector(a: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric-definite pencil ``a v = lam s v``.

    ``s = L L^T`` (Cholesky) reduces the pencil to the standard symmetric
    problem ``C y = lam y`` with ``C = L^-1 a L^-T``; the eigenvector maps
    back as ``v = L^-T y``, so ``v^T s v = y^T y = 1``.  The same route as
    LAPACK's ``sygvd``, which ``scipy.linalg.eigh(a, s)`` calls, in
    NumPy only: the distributed SCF does not load SciPy.
    """
    chol = np.linalg.cholesky(s)
    chol_inv = np.linalg.inv(chol)
    lams, ys = np.linalg.eigh(chol_inv @ a @ chol_inv.T)
    return float(lams[0]), chol_inv.T @ ys[:, 0]


@dataclass
class DistributedSCFResult:
    """Gathered outcome of a distributed SCF run."""

    energies: np.ndarray
    states: np.ndarray  # gathered, (bands, nx, ny, nz)
    density: np.ndarray
    total_energy: float
    iterations: int
    converged: bool
    restarts: int = 0  # failed attempts RecoveryController.run recovered from
    final_ranks: int = 0  # rank count of the attempt that finished
    final_band_groups: int = 1  # band groups of the attempt that finished


class DistributedSCF:
    """Self-consistent loop where every grid operation is distributed."""

    def __init__(
        self,
        spec: JobSpec,
        external_potential: np.ndarray,
        *,
        occupations: list[float] | None = None,
        checkpoint_store=None,
        metrics=None,
        cadence=None,
    ):
        grid = spec.grid()
        grid.check_array(external_potential, "external_potential")
        #: the one source of layout and runtime parameters; carried
        #: verbatim (including ``batch_size`` / ``ramp_up``, which the
        #: functional plane does not consume but the checkpoint marker
        #: and config hash must preserve)
        self.spec = spec
        self._spec_dict = spec.to_dict()
        self.grid = grid
        self.v_ext = external_potential
        self.n_bands = n_bands = spec.problem.n_grids
        self.occ = np.asarray(
            occupations if occupations is not None else [2.0] * n_bands, dtype=float
        )
        if self.occ.shape != (n_bands,):
            raise ValueError(f"occupations must have {n_bands} entries")
        self.checkpoint_store = checkpoint_store
        #: optional :class:`repro.core.recovery_policy.AdaptiveCadence`;
        #: when set, it replaces the static ``checkpoint_every`` gate —
        #: see ``_rank_run`` (the extra allreduce only runs when enabled,
        #: so static runs keep their exact transport op counts)
        self.cadence = cadence
        from repro.obs.metrics import resolve_registry

        #: per-iteration residual/energy gauges and timing land here (the
        #: null registry by default); rank 0 writes, the loop is SPMD
        self.metrics = resolve_registry(metrics)

        # 2D layout: n_ranks split into n_band_groups groups, each with
        # its own domain decomposition of the full grid.  BandGroups
        # raises the typed divisibility errors (G % nb, P % nb).
        self.layout = BandGroups(
            n_ranks=spec.layout.n_cores,
            n_bands=n_bands,
            n_groups=spec.layout.n_band_groups,
        )
        self.decomp = Decomposition(grid, self.layout.ranks_per_group)
        self.halo = HaloSpec(2)
        lap = laplacian_coefficients(2, spacing=grid.spacing)
        # kinetic = -1/2 laplacian; the engine is operator-agnostic
        self.kinetic_engine = DistributedStencil(self.decomp, lap.scale(-0.5))
        self.approach = approach = spec.approach_obj()
        # Compile the all-bands kinetic schedule once; every Hamiltonian
        # and preconditioner application across the SCF loop re-executes
        # this plan via the cache instead of recompiling.  Each group
        # only stencils its own G/nb bands.
        self.kinetic_plan = self.kinetic_engine.plan_for(
            approach, self.layout.bands_per_group
        )
        self.poisson = DistributedPoissonSolver(
            grid,
            self.layout.ranks_per_group,
            tolerance=1e-7,
            max_sweeps=20000,
            approach=approach,
        )
        # the ring-orthogonalization plan all three planes share; the
        # sizes only parameterize the plan's cost metadata — the
        # functional executor works on the actual block shapes
        self.band_plan = compile_band_schedule(
            self.layout,
            self.decomp.max_block_points(),
            self.decomp.max_block_points(),
            grid.bytes_per_point,
        )
        self.h3 = grid.spacing ** 3
        # kinetic-preconditioner constants (mirror dft.rmm_diis)
        self.pre_shift = 1.0
        self.pre_sweeps = 2
        self.pre_omega = 2 / 3
        self._pre_inv_diag = 1.0 / (lap.scale(-0.5).center + self.pre_shift)

    @classmethod
    def from_spec(
        cls,
        spec: JobSpec,
        external_potential: np.ndarray,
        *,
        occupations: list[float] | None = None,
        checkpoint_store=None,
        metrics=None,
        cadence=None,
    ) -> "DistributedSCF":
        """Build the distributed loop from a :class:`JobSpec` (the
        spelled form of the constructor)."""
        return cls(
            spec,
            external_potential,
            occupations=occupations,
            checkpoint_store=checkpoint_store,
            metrics=metrics,
            cadence=cadence,
        )

    # -- distributed primitives (all run inside rank functions) ---------------
    def _apply_h(
        self,
        ep: RankEndpoint,
        states: dict[int, LocalGrid],
        v_local: np.ndarray,
    ) -> dict[int, np.ndarray]:
        """H psi for every band; returns interior arrays per band."""
        kin = self.kinetic_engine.apply(ep, states, approach=self.approach)
        return {
            b: kin[b].interior + v_local * states[b].interior for b in states
        }

    def _precondition(
        self, ep: RankEndpoint, residuals: dict[int, np.ndarray]
    ) -> dict[int, LocalGrid]:
        """Damped-Jacobi sweeps of (T + shift) applied to every residual.

        Each sweep's T application is a distributed stencil — the same
        halo traffic pattern as the main Hamiltonian."""
        xs: dict[int, LocalGrid] = {}
        for b, r in residuals.items():
            lg = LocalGrid(self.decomp, ep.rank, self.halo)
            lg.interior[...] = self.pre_omega * self._pre_inv_diag * r
            xs[b] = lg
        for _ in range(self.pre_sweeps - 1):
            tx = self.kinetic_engine.apply(ep, xs, approach=self.approach)
            for b in xs:
                r2 = residuals[b] - (
                    tx[b].interior + self.pre_shift * xs[b].interior
                )
                xs[b].interior[...] += self.pre_omega * self._pre_inv_diag * r2
        return xs

    def _band_matrix(
        self,
        ep: RankEndpoint,
        ring: BandRingExecutor,
        left: dict[int, np.ndarray],
        right: dict[int, np.ndarray],
    ) -> np.ndarray:
        """Allreduced ``M[i, j] = <left_i | right_j>`` over grid + bands.

        ``left``/``right`` hold this rank's *own group's* band blocks
        (keyed by global band id).  The ring executor produces the
        group's row strip as blocked GEMMs overlapping the ring
        exchange; the global all-reduce of the zero-padded matrix sums
        the domains of each group and merges the strips of all groups.
        """
        bands = sorted(left)
        lstack = np.stack([left[b].reshape(-1) for b in bands])
        if right is left:
            rstack = lstack
        else:
            rstack = np.stack([right[b].reshape(-1) for b in bands])
        partial = ring.band_matrix(ep, lstack, rstack, self.h3)
        n = self.n_bands
        return ep.allreduce(partial.ravel()).reshape(n, n)

    def _lowdin_rotate(
        self, ep: RankEndpoint, ring: BandRingExecutor,
        states: dict[int, LocalGrid],
    ) -> None:
        """Löwdin-orthonormalize the band set in place (distributed)."""
        interiors = {b: states[b].interior for b in states}
        s = self._band_matrix(ep, ring, interiors, interiors)
        evals, evecs = np.linalg.eigh(s)
        if evals.min() < 1e-12:
            raise ValueError("bands became linearly dependent")
        inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.T
        self._rotate(ep, ring, interiors, inv_sqrt)

    def _rotate(
        self, ep: RankEndpoint, ring: BandRingExecutor,
        arrays: dict[int, np.ndarray], u: np.ndarray,
    ) -> None:
        """arrays <- u @ arrays in place (u is the full G x G matrix,
        identical on all ranks); the rank's rows come out of the ring's
        rotate phase, so the blocks of other groups only transit once.
        Serves state interiors and plain H psi blocks alike."""
        bands = sorted(arrays)
        local = np.stack([arrays[b].reshape(-1) for b in bands])
        rotated = ring.rotate(ep, u, local)
        for i, b in enumerate(bands):
            arrays[b][...] = rotated[i].reshape(arrays[b].shape)

    def _rayleigh_ritz(
        self, ep: RankEndpoint, gep: RankEndpoint, ring: BandRingExecutor,
        states: dict[int, LocalGrid], v_local: np.ndarray,
    ):
        """Diagonalize H in the span of ``states`` and rotate them onto
        its eigenvectors; returns ``(energies, H psi, u)`` with ``H psi``
        still in the pre-rotation basis."""
        h_states = self._apply_h(gep, states, v_local)
        interiors = {b: states[b].interior for b in states}
        h_sub = self._band_matrix(ep, ring, interiors, h_states)
        h_sub = 0.5 * (h_sub + h_sub.T)
        energies, u = np.linalg.eigh(h_sub)
        self._rotate(ep, ring, interiors, u.T)
        return energies, h_states, u

    def _density(
        self, ep: RankEndpoint, domain: int, states: dict[int, LocalGrid]
    ) -> np.ndarray:
        """rho on this rank's block.  Each group only knows its own
        bands' share, so the band-axis sum completes it (deterministic:
        every band peer ends up with the bitwise-identical total)."""
        rho = np.zeros(self.decomp.block_shape(domain))
        for b in states:
            rho += self.occ[b] * states[b].interior ** 2
        return band_axis_sum(ep, self.layout, rho)

    # -- the rank program --------------------------------------------------------
    def _rank_run(
        self, ep: RankEndpoint, v_ext_blocks, initial_blocks,
        restore, step_tracer, flight_recorder,
    ):
        rank = ep.rank
        rt = self.spec.runtime
        lay = self.layout
        group = lay.group_of(rank)
        domain = lay.domain_of(rank)
        bands = list(lay.bands_of(group))
        # halo traffic, preconditioning and the Poisson solve stay inside
        # the band group: gep re-ranks this rank to its domain index
        if lay.n_groups > 1:
            gep = GroupEndpoint(
                ep, group * lay.ranks_per_group, lay.ranks_per_group
            )
        else:
            gep = ep
        hook = None
        if step_tracer is not None:
            from repro.obs.spans import engine_hook

            hook = engine_hook(
                step_tracer, domain, worker_prefix=f"bg{group}.rank"
            )
        ring = BandRingExecutor(
            lay, self.band_plan, workspace=Workspace(), on_step=hook
        )
        v_ext = v_ext_blocks[domain].interior.copy()
        states = {b: initial_blocks[b][domain] for b in bands}
        self._lowdin_rotate(ep, ring, states)

        v_h = np.zeros_like(v_ext)
        v_xc = np.zeros_like(v_ext)
        rho_old = None
        energies = np.zeros(self.n_bands)
        start_it = 0
        if restore is not None:
            # resume mid-SCF: the mixing history (v_h/v_xc) and the
            # convergence reference (rho_old) come from the snapshot
            fields = restore.blocks[rank]
            v_h = fields["v_h"].copy()
            v_xc = fields["v_xc"].copy()
            rho_old = fields["rho_old"].copy()
            energies = np.array(restore.energies, copy=True)
            start_it = restore.iteration
        converged = False
        it = start_it
        # rank 0 reports the loop's telemetry (the loop is SPMD, so one
        # reporter suffices and the gauges are not written concurrently)
        report = rank == 0
        m_iters = self.metrics.counter("scf_iterations_total")
        m_seconds = self.metrics.histogram("scf_iteration_seconds")
        m_residual = self.metrics.gauge("scf_residual")
        m_energy = self.metrics.gauge("scf_band_energy_sum")

        def end_iteration(it, it_t0, energies):
            if not report:
                return
            m_iters.inc()
            m_seconds.observe(time.perf_counter() - it_t0)
            m_energy.set(float(np.dot(self.occ, energies)))
            if flight_recorder is not None:
                # rotate the flight window at the iteration boundary so
                # the ring buffer holds whole iterations (the deltas
                # include this iteration's counter increments)
                flight_recorder.mark_iteration(it)

        for it in range(start_it + 1, rt.max_iterations + 1):
            it_t0 = time.perf_counter()
            v_local = v_ext + v_h + v_xc
            for _ in range(rt.band_iterations):
                energies, h_states, u = self._rayleigh_ritz(
                    ep, gep, ring, states, v_local
                )
                self._rotate(ep, ring, h_states, u.T)

                residuals = {
                    b: h_states[b] - energies[b] * states[b].interior
                    for b in states
                }
                directions = self._precondition(gep, residuals)
                h_dirs = self._apply_h(gep, directions, v_local)
                # per-band 2x2 Rayleigh line search; each rank fills its
                # own bands' entries and one global reduce sums domains
                # within each owning group (other groups contribute 0).
                # Each band's pencil (a, s2) is solved in NumPy by
                # _lowest_pencil_vector: Cholesky-reduce s2, eigh, back-
                # transform; the lowest root mixes psi and its direction
                n = self.n_bands
                partial = np.zeros(5 * n)
                for b in bands:
                    psi = states[b].interior
                    d = directions[b].interior
                    partial[5 * b + 0] = float(np.vdot(psi, h_states[b])) * self.h3
                    partial[5 * b + 1] = float(np.vdot(psi, h_dirs[b])) * self.h3
                    partial[5 * b + 2] = float(np.vdot(d, h_dirs[b])) * self.h3
                    partial[5 * b + 3] = float(np.vdot(psi, d)) * self.h3
                    partial[5 * b + 4] = float(np.vdot(d, d)) * self.h3
                red = ep.allreduce(partial)
                for b in bands:
                    app, apd, add, spd, sdd = red[5 * b: 5 * b + 5]
                    a = np.array([[app, apd], [apd, add]])
                    s2 = np.array([[1.0, spd], [spd, sdd]])
                    if np.linalg.det(s2) < 1e-14:
                        continue
                    _, (c0, c1) = _lowest_pencil_vector(a, s2)
                    states[b].interior[...] = (
                        c0 * states[b].interior + c1 * directions[b].interior
                    )
                self._lowdin_rotate(ep, ring, states)

            # density, Hartree, XC
            rho = self._density(ep, domain, states)
            if rho_old is not None:
                local_change = float(np.abs(rho - rho_old).sum() * self.h3)
                # all groups hold the same rho: group 0 speaks for all
                change = float(
                    ep.allreduce(local_change if group == 0 else 0.0)[0]
                )
                if report:
                    m_residual.set(change)
                if change < rt.tolerance:
                    converged = True
                    end_iteration(it, it_t0, energies)
                    break
            rho_old = rho.copy()

            # one Poisson solve per iteration: group 0 runs CG inside its
            # group (the rank solver reads only its own domain's entry);
            # the other groups add zeros to the band-axis sum, so every
            # group holds group 0's v_h bit for bit (x + 0.0 == x)
            if group == 0:
                v_h_new = self.poisson._rank_solve(
                    gep, {domain: self._density_block(rho, domain)}
                )[0].interior
            else:
                v_h_new = np.zeros(self.decomp.block_shape(domain))
            v_h_new = band_axis_sum(ep, lay, v_h_new, round_id=1)
            v_h = (1 - rt.mixing) * v_h + rt.mixing * v_h_new
            if rt.xc == "lda":
                v_xc = (1 - rt.mixing) * v_xc + rt.mixing * lda_potential(rho)

            due = (
                self.checkpoint_store is not None
                and it % rt.checkpoint_every == 0
            )
            if self.cadence is not None and self.checkpoint_store is not None:
                # adaptive cadence: rank 0's measured iteration wall time
                # is broadcast by one extra allreduce (only when a
                # cadence is attached — static runs keep their exact
                # transport op counts) so every rank takes the identical
                # Daly-interval decision
                elapsed = time.perf_counter() - it_t0 if rank == 0 else 0.0
                t_iter = float(ep.allreduce(elapsed)[0])
                due = self.cadence.due(it, t_iter)
            if due:
                # N-N checkpoint: every rank deposits its own interior
                # blocks; the store commits once all ranks arrive
                self.checkpoint_store.deposit(
                    iteration=it,
                    rank=rank,
                    n_domains=lay.n_ranks,
                    shape=self.grid.shape,
                    energies=energies,
                    fields={
                        "states": np.stack(
                            [states[b].interior for b in bands]
                        ),
                        "rho_old": rho_old,
                        "v_h": v_h,
                        "v_xc": v_xc,
                    },
                    n_band_groups=lay.n_groups,
                    jobspec=self._spec_dict,
                )

            end_iteration(it, it_t0, energies)

        # final Rayleigh-Ritz: report clean eigenvalues of the last
        # potential (the in-loop energies lag the post-line-step states)
        energies, _, _ = self._rayleigh_ritz(
            ep, gep, ring, states, v_ext + v_h + v_xc
        )

        # total energy (allreduced pieces; group 0 contributes the grid
        # sums since every group holds the identical density)
        rho = self._density(ep, domain, states)
        local = np.array([
            float((rho * v_h).sum() * self.h3),
            float((rho * v_xc).sum() * self.h3),
        ]) if group == 0 else np.zeros(2)
        e_h2, e_vxc = ep.allreduce(local)
        total = float(np.dot(self.occ, energies)) - 0.5 * e_h2
        if rt.xc == "lda":
            local_exc = (
                lda_energy(rho, self.grid.spacing) if group == 0 else 0.0
            )
            total += float(ep.allreduce(local_exc)[0]) - e_vxc
        return states, energies, rho, total, it, converged

    # -- public API --------------------------------------------------------------
    def run(
        self,
        transport=None,
        resume_from: SCFCheckpoint | None = None,
        step_tracer=None,
        flight_recorder=None,
    ) -> DistributedSCFResult:
        """Scatter, iterate on rank threads, gather.

        ``transport`` overrides the default in-process transport (e.g. a
        :class:`~repro.transport.faults.FaultyTransport` for chaos runs).
        ``resume_from`` restarts mid-SCF from a committed checkpoint —
        written by any ``(ranks, band groups)`` layout: a snapshot from
        a different layout is regrouped onto this instance's
        (recompiled) one via :func:`~repro.dft.checkpoint
        .regroup_checkpoint`.

        When this SCF carries a live metrics registry and no explicit
        transport is given, the default transport is built with the same
        registry, so one run reports SCF, checkpoint, *and* transport
        counters together.

        ``step_tracer`` (a :class:`~repro.obs.spans.SpanTracer`) records
        the executed ring-orthogonalization steps, with resources tagged
        by band group (``bg{group}.rank{domain}.w0``).

        ``flight_recorder`` (a :class:`~repro.obs.flightrec
        .FlightRecorder`) keeps the last K iterations of spans + metric
        deltas for post-mortem dumps; its tracer doubles as the
        ``step_tracer`` when none is given, and rank 0 rotates its
        window at every iteration boundary.
        """
        if flight_recorder is not None and step_tracer is None:
            step_tracer = flight_recorder.tracer
        if transport is None and self.metrics.enabled:
            from repro.transport.inproc import InprocTransport

            transport = InprocTransport(
                self.layout.n_ranks, metrics=self.metrics
            )
        if (
            step_tracer is not None
            and getattr(step_tracer, "config_hash", None) is None
        ):
            step_tracer.config_hash = self.spec.config_hash()
        v_ext_blocks = scatter(self.v_ext, self.decomp, self.halo)
        if resume_from is None:
            # every group draws the same full band set, then keeps its
            # slice — initial states are independent of n_band_groups
            rng = default_rng(self.spec.runtime.seed)
            initial = [
                rng.standard_normal(self.grid.shape) for _ in range(self.n_bands)
            ]
            initial_blocks = [
                scatter(a, self.decomp, self.halo) for a in initial
            ]
            restore = None
        else:
            initial_blocks, restore = self._resume_state(resume_from)
        results = run_ranks(
            self.layout.n_ranks,
            self._rank_run,
            v_ext_blocks,
            initial_blocks,
            restore,
            step_tracer,
            flight_recorder,
            transport=transport,
        )
        lay = self.layout
        n_domains = self.decomp.n_domains
        _, energies, _, total, it, converged = results[0]
        gathered_states = np.stack([
            gather([
                results[lay.rank_of(lay.group_of_band(b), d)][0][b]
                for d in range(n_domains)
            ])
            for b in range(self.n_bands)
        ])
        # all groups hold the identical density; gather group 0's blocks
        density = gather([
            self._density_block(results[lay.rank_of(0, d)][2], d)
            for d in range(n_domains)
        ])
        return DistributedSCFResult(
            energies=energies,
            states=gathered_states,
            density=density,
            total_energy=total,
            iterations=it,
            converged=converged,
            final_ranks=lay.n_ranks,
            final_band_groups=lay.n_groups,
        )

    def _resume_state(self, ckpt: SCFCheckpoint):
        """Initial blocks + per-rank restore snapshot for a resume.

        Shrink/regroup path: a checkpoint committed under any other
        ``(ranks, band groups)`` layout is re-sliced onto this one —
        domains through the transfer plan, bands through the band
        regroup plan — before any rank thread starts.
        """
        lay = self.layout
        if ckpt.jobspec is None:
            raise SpecMismatchError(
                ["jobspec: the checkpoint carries none (a version-1 snapshot)"]
            )
        check_restart_compatible(self.spec, JobSpec.from_dict(ckpt.jobspec))
        # the arrays come from outside the program: hold them to the spec
        if tuple(ckpt.shape) != tuple(self.grid.shape):
            raise ValueError(
                f"checkpoint grid {tuple(ckpt.shape)} does not match "
                f"SCF grid {tuple(self.grid.shape)}"
            )
        n_bands = ckpt.blocks[0]["states"].shape[0] * ckpt.n_band_groups
        if n_bands != self.n_bands:
            raise ValueError(
                f"checkpoint has {n_bands} bands, SCF wants {self.n_bands}"
            )
        if ckpt.n_domains != lay.n_ranks or ckpt.n_band_groups != lay.n_groups:
            ckpt = regroup_checkpoint(
                ckpt, self.grid, lay.n_ranks, lay.n_groups
            )
        initial_blocks = []
        for b in range(self.n_bands):
            g = lay.group_of_band(b)
            local_b = b - g * lay.bands_per_group
            band = []
            for d in range(self.decomp.n_domains):
                lg = LocalGrid(self.decomp, d, self.halo)
                lg.interior[...] = (
                    ckpt.blocks[lay.rank_of(g, d)]["states"][local_b]
                )
                band.append(lg)
            initial_blocks.append(band)
        return initial_blocks, ckpt

    def _density_block(self, rho_interior: np.ndarray, rank: int) -> LocalGrid:
        lg = LocalGrid(self.decomp, rank, self.halo)
        lg.interior[...] = rho_interior
        return lg
