"""repro — reproduction of "GPAW optimized for Blue Gene/P using hybrid
programming" (Kristensen, Happe & Vinter, IPDPS 2009).

The library has three layers:

* **numerics** — :mod:`repro.stencil`, :mod:`repro.grid`,
  :mod:`repro.transport`, :mod:`repro.core.engine`: the distributed
  13-point finite-difference operation with real NumPy data, bit-identical
  to the sequential kernel under all four programming approaches.
* **performance** — :mod:`repro.des`, :mod:`repro.machine`,
  :mod:`repro.netmodel`, :mod:`repro.core.simrun`,
  :mod:`repro.core.perfmodel`: a simulated Blue Gene/P (a discrete-event
  replay of the compiled schedules over the torus, node modes and MPI
  thread modes) plus a calibrated closed-form model that regenerates the
  paper's figures up to 16384 cores.
* **application** — :mod:`repro.dft`: a mini real-space DFT layer
  (multigrid Poisson, FD Hamiltonian, eigensolvers, orthogonalization,
  SCF) providing the physics workloads; :mod:`repro.analysis`: one
  experiment driver per paper table/figure.

Most users want the names re-exported here; see README.md for a tour.
"""

from repro.core import (
    ALL_APPROACHES,
    Approach,
    DistributedStencil,
    FDJob,
    FDTiming,
    FLAT_OPTIMIZED,
    FLAT_ORIGINAL,
    HYBRID_MASTER_ONLY,
    HYBRID_MULTIPLE,
    JobSpec,
    LayoutSpec,
    PerformanceModel,
    Planner,
    ProblemSpec,
    RuntimeSpec,
    SequentialStencil,
    SpecMismatchError,
    WholeAppModel,
    approach_by_name,
    simulate_fd,
)
from repro.grid import Decomposition, GridDescriptor, HaloSpec, gather, scatter
from repro.machine import BGP_SPEC, Machine, MachineSpec, NodeMode
from repro.stencil import laplacian_coefficients
from repro.transport import InprocTransport, run_ranks

__version__ = "1.0.0"

__all__ = [
    "ALL_APPROACHES",
    "Approach",
    "DistributedStencil",
    "FDJob",
    "FDTiming",
    "FLAT_OPTIMIZED",
    "FLAT_ORIGINAL",
    "HYBRID_MASTER_ONLY",
    "HYBRID_MULTIPLE",
    "JobSpec",
    "LayoutSpec",
    "PerformanceModel",
    "Planner",
    "ProblemSpec",
    "RuntimeSpec",
    "SequentialStencil",
    "SpecMismatchError",
    "WholeAppModel",
    "approach_by_name",
    "simulate_fd",
    "Decomposition",
    "GridDescriptor",
    "HaloSpec",
    "gather",
    "scatter",
    "BGP_SPEC",
    "Machine",
    "MachineSpec",
    "NodeMode",
    "laplacian_coefficients",
    "InprocTransport",
    "run_ranks",
    "__version__",
]
