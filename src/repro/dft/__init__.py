"""A miniature real-space DFT layer — the application GPAW embeds the FD
operation in.

The paper's kernel is motivated by two consumers (section II): the Poisson
equation for the electrostatic potential and the Kohn-Sham equations for
the wave functions.  This package implements both on top of the library's
grid/stencil substrate, faithfully enough to run real physics in the
examples and integration tests:

* :mod:`repro.dft.operators` — Laplacian and kinetic-energy operators on a
  grid descriptor.
* :mod:`repro.dft.poisson` — the multigrid solver for
  ``laplace(phi) = -4 pi rho`` (weighted-Jacobi smoothing per level).
* :mod:`repro.dft.hamiltonian` — ``H = -1/2 laplace + V(r)``.
* :mod:`repro.dft.eigensolver` — lowest eigenpairs of the FD Hamiltonian.
* :mod:`repro.dft.orthogonalize` — the overlap matrix and Löwdin
  orthogonalization of wave-function sets (the operation that forces
  GPAW's same-subset-everywhere decomposition).
* :mod:`repro.dft.density` — electron density from occupied states.
* :mod:`repro.dft.scf` — a small self-consistent field loop (Hartree
  interaction via the Poisson solver).
* :mod:`repro.dft.distributed` — the conjugate-gradient Poisson solver
  over the distributed FD engine.
* :mod:`repro.dft.checkpoint` — atomic N-N checkpoint/restart of the
  distributed SCF, including shrink-to-fewer-ranks resume
  (docs/ROBUSTNESS.md).
* :mod:`repro.dft.band_ortho` — the functional executor of the band-ring
  orthogonalization plan (2D grid x band decomposition,
  ``DistributedSCF.from_spec`` on a ``LayoutSpec(n_band_groups=...)``).

SciPy is the sequential oracle's dependency only.  Four entry points
load it, each on first call: :func:`~repro.dft.eigensolver.lowest_eigenstates`
(ARPACK), :meth:`Hamiltonian.as_linear_operator
<repro.dft.hamiltonian.Hamiltonian.as_linear_operator>`,
:class:`~repro.dft.scf.SCFLoop` (through ``lowest_eigenstates``) and
:class:`~repro.dft.rmm_diis.RmmDiis` (its 2x2 line search).  Importing
this package, the distributed SCF and its recovery controller run on
NumPy alone.
"""

from repro.dft.band_ortho import BandRingExecutor, band_axis_sum
from repro.dft.checkpoint import (
    FileCheckpointStore,
    MemoryCheckpointStore,
    SCFCheckpoint,
    redistribute_blocks,
    regroup_checkpoint,
)
from repro.dft.operators import Laplacian, Kinetic
from repro.dft.poisson import PoissonSolver, PoissonResult
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.eigensolver import lowest_eigenstates, EigenResult
from repro.dft.orthogonalize import lowdin, overlap_matrix
from repro.dft.density import density_from_states
from repro.dft.scf import SCFLoop, SCFResult
from repro.dft.rmm_diis import KineticPreconditioner, RmmDiis, RmmDiisResult
from repro.dft.distributed import (
    DistributedPoissonSolver,
    PoissonBreakdownError,
)
from repro.dft.distributed_scf import DistributedSCF, DistributedSCFResult
from repro.dft.recovery import RecoveryController
from repro.dft.xc import lda_energy, lda_potential

__all__ = [
    "BandRingExecutor",
    "band_axis_sum",
    "Laplacian",
    "Kinetic",
    "PoissonSolver",
    "PoissonResult",
    "Hamiltonian",
    "lowest_eigenstates",
    "EigenResult",
    "lowdin",
    "overlap_matrix",
    "density_from_states",
    "SCFLoop",
    "SCFResult",
    "KineticPreconditioner",
    "RmmDiis",
    "RmmDiisResult",
    "DistributedPoissonSolver",
    "PoissonBreakdownError",
    "DistributedSCF",
    "DistributedSCFResult",
    "FileCheckpointStore",
    "MemoryCheckpointStore",
    "SCFCheckpoint",
    "RecoveryController",
    "lda_energy",
    "lda_potential",
    "redistribute_blocks",
    "regroup_checkpoint",
]
