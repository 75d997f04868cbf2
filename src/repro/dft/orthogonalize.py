"""Wave-function orthogonalization.

This is the operation that pins GPAW's data layout: orthogonalizing the
band set needs *the same subset of every grid* on every process
(section IV of the paper), because the overlap matrix couples all bands
point by point.  We use Löwdin (symmetric) orthogonalization —
``S^{-1/2}`` via an eigen decomposition of the overlap matrix — which
treats all bands symmetrically, as GPAW does.

The grid inner product carries the ``h^3`` volume element so that
orthonormality means physical normalization.
"""

from __future__ import annotations

import numpy as np

from repro.grid.grid import GridDescriptor


#: bands per side of one GEMM tile of :func:`overlap_matrix`
_BLOCK = 32


def overlap_matrix(grid: GridDescriptor, states: np.ndarray) -> np.ndarray:
    """``S_ij = <psi_i | psi_j>`` over the grid (with volume element).

    ``S`` is Hermitian, so only the lower triangle is computed — as
    blocked GEMM tiles of ``_BLOCK`` bands a side — and reflected.
    That halves the flops of the full ``flat @ flat.T`` Gram product and
    makes the result *bitwise* Hermitian: the diagonal tiles are
    explicitly symmetrized (a GEMM's output is only symmetric to
    round-off), which downstream eigensolvers appreciate.
    """
    if states.ndim != 4 or states.shape[1:] != grid.shape:
        raise ValueError(
            f"states must be (bands, {grid.shape}); got {states.shape}"
        )
    flat = states.reshape(states.shape[0], -1)
    h3 = grid.spacing ** 3
    n = flat.shape[0]
    s = np.empty((n, n), dtype=flat.dtype)
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        left = flat[i0:i1].conj()
        for j0 in range(0, i0 + 1, _BLOCK):
            j1 = min(j0 + _BLOCK, n)
            tile = left @ flat[j0:j1].T
            tile *= h3
            if j0 == i0:
                # reflect the tile's own lower triangle across its
                # diagonal so S == S^H holds bit for bit
                il, ju = np.tril_indices(i1 - i0, k=-1)
                tile[ju, il] = tile[il, ju].conj()
                s[i0:i1, j0:j1] = tile
            else:
                s[i0:i1, j0:j1] = tile
                s[j0:j1, i0:i1] = tile.conj().T
    return s


def lowdin(grid: GridDescriptor, states: np.ndarray) -> np.ndarray:
    """Löwdin (symmetric) orthonormalization: ``psi' = S^{-1/2} psi``."""
    s = overlap_matrix(grid, states)
    evals, evecs = np.linalg.eigh(s)
    if evals.min() < 1e-12:
        raise ValueError(
            f"overlap matrix is singular (min eigenvalue {evals.min():.2e}); "
            "bands are linearly dependent"
        )
    inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    flat = states.reshape(states.shape[0], -1)
    return (inv_sqrt @ flat).reshape(states.shape)
