"""The one place the benchmark imports from ``repro``.

Required names are what an end-to-end pass cannot run without; they are
imported from the package level, so a module split inside the package
does not reach the benchmark.  Only entry points the roadmap keeps are
used: ``DistributedSCF.from_spec``, ``simulate_fd``/``simulate_spec``
without ``engine=``, ``SpanTracer``, ``critical_path``, ``Planner.rank``.

Everything else is a *seam* used only to price a layer.  A seam that is
missing resolves to ``None``; the metric that needs it is reported as
null and the end-to-end numbers are unaffected.
"""

from __future__ import annotations

import importlib

import numpy as np  # noqa: F401  (re-exported: the workloads' array library)

from repro import (  # noqa: F401
    BGP_SPEC,
    Decomposition,
    DistributedStencil,
    FDJob,
    GridDescriptor,
    HaloSpec,
    JobSpec,
    LayoutSpec,
    Planner,
    ProblemSpec,
    RuntimeSpec,
    SequentialStencil,
    approach_by_name,
    gather,
    laplacian_coefficients,
    run_ranks,
    scatter,
    simulate_fd,
)
from repro.core import clear_plan_cache, simulate_spec  # noqa: F401
from repro.dft import DistributedSCF, FileCheckpointStore  # noqa: F401
from repro.obs import SpanTracer, critical_path  # noqa: F401


def _seam(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


plan_for_spec = _seam("repro.obs.critpath", "plan_for_spec")
plan_cache_stats = _seam("repro.core", "plan_cache_stats")
PerformanceModel = _seam("repro.core", "PerformanceModel")
MetricsRegistry = _seam("repro.obs", "MetricsRegistry")
InprocTransport = _seam("repro.transport", "InprocTransport")
regroup_checkpoint = _seam("repro.dft", "regroup_checkpoint")
lowdin = _seam("repro.dft", "lowdin")
apply_stencil_batch = _seam("repro.stencil", "apply_stencil_batch")
flops_per_point = _seam("repro.stencil", "flops_per_point")
pack_slabs = _seam("repro.grid.halo", "pack_slabs")
unpack_slabs = _seam("repro.grid.halo", "unpack_slabs")


def versions() -> dict:
    import platform

    import repro

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": getattr(repro, "__version__", "?"),
    }
