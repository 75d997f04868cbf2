"""Memory accounting for FD jobs.

Section VII: "because of the memory demand, it is not possible to have
more than 32 grids running on a single CPU-core" — the constraint that
fixes Fig 5's job size.  This module models the per-rank footprint:

* the input blocks, halo-padded (the stencil reads ghosts), and
* the output blocks (input and output are always separate grids,
  section IV),

for every grid the rank holds, against the memory each rank sees: 2 GB in
SMP mode, half per rank in DUAL, a quarter (512 MB) in virtual-node mode
(section III).
"""

from __future__ import annotations

import math

from repro.core.approaches import Approach
from repro.core.perfmodel import FDJob
from repro.core.schedule import DEFAULT_HALO_WIDTH
from repro.grid.decompose import Decomposition
from repro.machine.partition import NodeMode
from repro.machine.spec import BGP_SPEC, MachineSpec


def memory_limit_per_rank(
    approach: Approach, n_cores: int, spec: MachineSpec = BGP_SPEC
) -> int:
    """Bytes of main memory visible to one rank under the node mode."""
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    if approach.is_hybrid or n_cores < 4:
        # SMP (or a partial node, which also runs one rank per node)
        return spec.node.memory_bytes
    return spec.node.memory_bytes // NodeMode.VN.ranks_per_node


def fd_memory_per_rank(
    job: FDJob, approach: Approach, n_cores: int, spec: MachineSpec = BGP_SPEC
) -> int:
    """Bytes one rank needs to hold its blocks of every grid (in + out)."""
    decomp = Decomposition(job.grid, approach.domains_for(n_cores))
    block = decomp.block_shape(0)
    bpp = job.grid.bytes_per_point
    padded_in = math.prod(b + 2 * DEFAULT_HALO_WIDTH for b in block) * bpp
    plain_out = math.prod(block) * bpp
    return job.n_grids * (padded_in + plain_out)


def fits_in_memory(
    job: FDJob, approach: Approach, n_cores: int, spec: MachineSpec = BGP_SPEC
) -> bool:
    """Does the job's working set fit each rank's memory?"""
    return fd_memory_per_rank(job, approach, n_cores, spec) <= memory_limit_per_rank(
        approach, n_cores, spec
    )


def max_grids_per_core(
    grid, approach: Approach, n_cores: int = 1,
    spec: MachineSpec = BGP_SPEC, power_of_two: bool = True,
) -> int:
    """Largest grid count per rank that fits (optionally a power of two).

    With the paper's 144^3 grids on a single core this returns 32 — the
    constraint that sizes the Fig 5 job.
    """
    limit = memory_limit_per_rank(approach, n_cores, spec)
    one = fd_memory_per_rank(FDJob(grid, 1), approach, n_cores, spec)
    raw = int(limit // one)
    if raw < 1:
        return 0
    if not power_of_two:
        return raw
    return 1 << (raw.bit_length() - 1)
