"""The paper's contribution: the optimized distributed finite-difference op.

Four programming approaches (section VI), one engine, two planes:

* :mod:`repro.core.approaches` — declarative descriptions of *Flat
  original*, *Flat optimized*, *Hybrid multiple* and *Hybrid master-only*,
  and the MPI thread modes they request.
* :mod:`repro.core.batching` — grid batches and the ramp-up schedule that
  softens the double-buffering prologue (section V-A).
* :mod:`repro.core.schedule` — the schedule compiler: turns an approach,
  a decomposition and a batch config into an explicit per-worker step IR
  that all three execution planes consume.
* :mod:`repro.core.engine` — the functional engine: interprets compiled
  plans on real NumPy grids over a transport, bit-identical to the
  sequential stencil.
* :mod:`repro.core.workspace` — the buffer arena the engine borrows
  scratch, output and halo message buffers from (zero-allocation steady
  state).
* :mod:`repro.core.simrun` — the same compiled plans (FD and band ring)
  lowered to micro-op programs and replayed on the DES machine: exact
  message-level timing up to paper-scale rank counts, pinned by golden
  data.
* :mod:`repro.core.perfmodel` — the closed-form performance model used to
  regenerate the paper's figures at up to 16384 cores; walks the compiled
  plan and is cross-validated against :mod:`repro.core.simrun` by tests.
* :mod:`repro.core.jobspec` — the typed run configuration
  (:class:`JobSpec`) every consumer validates through exactly once.
* :mod:`repro.core.planner` — the model-driven :class:`Planner` that
  enumerates, prices and ranks feasible configurations; the one place
  an SCF step (FD invocations + band-ring orthogonalization) is priced.
"""

from repro.core.approaches import (
    Approach,
    FLAT_ORIGINAL,
    FLAT_OPTIMIZED,
    HYBRID_MULTIPLE,
    HYBRID_MASTER_ONLY,
    ALL_APPROACHES,
    ThreadMode,
    approach_by_name,
)
from repro.core.batching import batch_schedule
from repro.core.schedule import (
    BandSchedulePlan,
    PartialGemm,
    RingSendRecv,
    SchedulePlan,
    clear_plan_cache,
    compile_band_schedule,
    compile_schedule,
    plan_cache_stats,
    recv_sources,
    ring_tag,
    timing_plan,
)
from repro.core.engine import DistributedStencil, SequentialStencil
from repro.core.workspace import Workspace
from repro.core.jobspec import (
    JobSpec,
    LayoutSpec,
    ProblemSpec,
    RuntimeSpec,
    SpecMismatchError,
    check_restart_compatible,
)
from repro.core.perfmodel import FDJob, PerformanceModel, FDTiming
from repro.core.planner import (
    Candidate,
    PlanChoice,
    Planner,
    PlanResult,
    Rejection,
)
from repro.core.recovery_policy import (
    AdaptiveCadence,
    DegradationError,
    DegradationPolicy,
    DegradationStep,
)
from repro.core.simrun import (
    simulate_band_plan,
    simulate_fd,
    simulate_spec,
)
from repro.core.wholeapp import ScfPhaseTimes, WholeAppModel
from repro.core.memory import (
    fd_memory_per_rank,
    memory_limit_per_rank,
)

__all__ = [
    "Approach",
    "FLAT_ORIGINAL",
    "FLAT_OPTIMIZED",
    "HYBRID_MULTIPLE",
    "HYBRID_MASTER_ONLY",
    "ALL_APPROACHES",
    "ThreadMode",
    "approach_by_name",
    "BandSchedulePlan",
    "batch_schedule",
    "PartialGemm",
    "RingSendRecv",
    "SchedulePlan",
    "clear_plan_cache",
    "compile_band_schedule",
    "compile_schedule",
    "recv_sources",
    "plan_cache_stats",
    "ring_tag",
    "timing_plan",
    "DistributedStencil",
    "SequentialStencil",
    "Workspace",
    "JobSpec",
    "LayoutSpec",
    "ProblemSpec",
    "RuntimeSpec",
    "SpecMismatchError",
    "check_restart_compatible",
    "Candidate",
    "PlanChoice",
    "Planner",
    "PlanResult",
    "Rejection",
    "AdaptiveCadence",
    "DegradationError",
    "DegradationPolicy",
    "DegradationStep",
    "FDJob",
    "PerformanceModel",
    "FDTiming",
    "simulate_band_plan",
    "simulate_fd",
    "simulate_spec",
    "ScfPhaseTimes",
    "WholeAppModel",
    "fd_memory_per_rank",
    "memory_limit_per_rank",
]
