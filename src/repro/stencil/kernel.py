"""Vectorized stencil application.

Three entry points:

* :func:`apply_stencil_padded` — the production kernel: operates on one
  domain's halo-padded array, writing a separate output block through a
  caller-provided ``(2, *padded.shape)`` scratch buffer, so the kernel
  allocates **nothing** when both ``out`` and ``scratch`` are supplied.
* :func:`apply_stencil_batch` — the same kernel over a stacked 4-D
  ``(ngrids, nx, ny, nz)`` array.  The span bookkeeping is computed once
  per batch and each grid is processed with one shared scratch buffer, so
  the per-call Python dispatch amortizes over the whole batch while the
  working set of every array operation stays cache-sized (processing the
  full 4-D stack per term is measurably *slower* on a memory-bound host —
  the stacked operands stream through DRAM instead of L2).
* :func:`apply_stencil_global` — the sequential oracle: applies the same
  stencil to a whole (undistributed) grid with periodic or zero boundary
  handling.  Every distributed code path in the library is tested against
  it, **bit-identically**: the oracle mirrors the fused kernel's exact
  accumulation order.

Accumulation order (shared by all three kernels, and the contract that
makes distributed results bit-identical to the oracle)::

    out = center * interior
    for dist in 1..radius:
        s    = (((((x_lo + x_hi) + y_lo) + y_hi) + z_lo) + z_hi)
        s   *= weights[dist - 1]
        out += s

where ``?_lo``/``?_hi`` are the neighbours at ``-dist``/``+dist`` along
each axis: 15 array operations for the paper's radius-2 stencil instead
of the 25 (plus ~12 temporaries) of the naive ``out += weight * view``.

Flat spans.  In a C-ordered ``(X, Y, Z)`` padded block the distance-``d``
neighbours sit at flat offsets ``±d*Y*Z``, ``±d*Z`` and ``±d``, so every
term is one contiguous 1-D slice of ``padded.reshape(-1)`` over the span
from the first interior point ``(w, w, w)`` to the last: each pass is a
single unit-stride stream (the kernel is bandwidth-bound, Malas et al.,
PAPERS.md) rather than ``X*Y`` short rows of ``Z`` points.  The ghost
columns inside the span are computed and thrown away (1.26x the interior
on a 48x48x24 block, 1.54x on 16^3); one strided copy moves the interior
into ``out``.  Each interior point keeps the operands and order above.

The input and output are always separate arrays; GPAW guarantees this for
its FD operation (section IV), which is what makes the point order — and
hence the parallelization — free.
"""

from __future__ import annotations

import numpy as np

from repro.stencil.coefficients import StencilCoefficients

Slices3 = tuple[slice, slice, slice]
#: (interior slice, flat span, per distance the six shifted flat spans in
#: the canonical order x_lo, x_hi, y_lo, y_hi, z_lo, z_hi)
Spans = tuple[Slices3, slice, list[list[slice]]]

#: Per-(padded shape, radius) cache of the :data:`Spans`.
_SPAN_CACHE: dict[tuple[tuple[int, int, int], int], Spans] = {}


def flops_per_point(coeffs: StencilCoefficients) -> int:
    """Floating-point operations per output point.

    One multiply per touched point plus the adds joining them:
    13 multiplies + 12 adds = 25 for the paper's radius-2 stencil.
    """
    n = coeffs.n_points
    return 2 * n - 1


def _term_slices(padded_shape: tuple[int, int, int], w: int) -> Spans:
    """Interior slice, flat span and per-distance shifted flat spans."""
    key = (padded_shape, w)
    cached = _SPAN_CACHE.get(key)
    if cached is not None:
        return cached
    nx, ny, nz = padded_shape
    interior: Slices3 = tuple(slice(w, s - w) for s in padded_shape)  # type: ignore[assignment]
    first = (w * ny + w) * nz + w
    end = ((nx - w - 1) * ny + ny - w - 1) * nz + nz - w  # past the last
    groups = [
        [slice(first + o, end + o) for d in (k * ny * nz, k * nz, k) for o in (-d, d)]
        for k in range(1, w + 1)
    ]
    cached = _SPAN_CACHE[key] = (interior, slice(first, end), groups)
    return cached


def _fused_apply(
    padded: np.ndarray, coeffs: StencilCoefficients, out: np.ndarray,
    scratch: np.ndarray, spans: Spans,
) -> None:
    """The zero-allocation inner kernel (canonical accumulation order)."""
    interior, span, groups = spans
    x = padded.reshape(-1)  # a view; a non-contiguous input is copied once
    acc, s = scratch.reshape(2, -1)[:, span]
    np.multiply(x[span], coeffs.center, out=acc)
    for terms, weight in zip(groups, coeffs.weights):
        np.add(x[terms[0]], x[terms[1]], out=s)
        for sl in terms[2:]:
            np.add(s, x[sl], out=s)
        np.multiply(s, weight, out=s)
        np.add(acc, s, out=acc)
    np.copyto(out, scratch[0][interior])


def _check_padded_shape(shape: tuple[int, ...], w: int) -> None:
    for axis, size in enumerate(shape):
        if size < 2 * w + 1:
            raise ValueError(
                f"padded axis {axis} has {size} points; needs >= {2 * w + 1} "
                f"for radius {w}"
            )


def _check_buffer(
    name: str, buf: np.ndarray, shape: tuple[int, ...], dtype: np.dtype,
    *others: np.ndarray,
) -> None:
    if buf.shape != shape:
        raise ValueError(f"{name} shape {buf.shape} != expected {shape}")
    if buf.dtype != dtype:
        raise ValueError(f"{name} dtype {buf.dtype} != input dtype {dtype}")
    for other in others:
        if buf is other or np.shares_memory(buf, other):
            raise ValueError(f"{name} must not alias the input or output")


def _scratch(
    scratch: np.ndarray | None, padded_shape: tuple[int, ...], dtype, *others
) -> np.ndarray:
    """The ``(2, *padded_shape)`` accumulator pair, allocated or checked."""
    shape = (2, *padded_shape)
    if scratch is None:
        return np.empty(shape, dtype=dtype)
    _check_buffer("scratch", scratch, shape, dtype, *others)
    if not scratch.flags.c_contiguous:
        raise ValueError("scratch must be C-contiguous (its flat spans are views)")
    return scratch


def apply_stencil_padded(
    padded: np.ndarray,
    coeffs: StencilCoefficients,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the stencil to the interior of a halo-padded array.

    Parameters
    ----------
    padded:
        Block extended by ``coeffs.radius`` ghost points per side, with the
        ghosts already filled (halo exchange / zero walls done).
    out:
        Optional pre-allocated output of the *block* (unpadded) shape.
    scratch:
        Optional C-contiguous ``(2, *padded.shape)`` buffer (accumulator,
        term sum) of ``padded``'s dtype.  With both ``out`` and ``scratch``
        supplied the kernel performs **zero** array allocations (for a
        contiguous ``padded``); steady-state callers borrow both from a
        :class:`repro.core.workspace.Workspace`.

    Returns
    -------
    The block-shaped result (``out`` if given).
    """
    w = coeffs.radius
    _check_padded_shape(padded.shape, w)
    block_shape = tuple(s - 2 * w for s in padded.shape)
    if out is None:
        out = np.empty(block_shape, dtype=padded.dtype)
    else:
        _check_buffer("out", out, block_shape, padded.dtype, padded)
    scratch = _scratch(scratch, padded.shape, padded.dtype, padded, out)
    _fused_apply(padded, coeffs, out, scratch, _term_slices(padded.shape, w))
    return out


def apply_stencil_batch(
    padded_stack: np.ndarray,
    coeffs: StencilCoefficients,
    out_stack: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the stencil to a stacked batch of halo-padded grids.

    ``padded_stack`` is a 4-D ``(ngrids, nx, ny, nz)`` array — the regime
    the paper targets (thousands of wave-function grids per rank, already
    grouped by :func:`repro.core.batching.batch_schedule`).  The span
    bookkeeping is resolved once for the whole batch and every grid is
    processed through one shared ``scratch``, so steady-state batched
    execution allocates nothing and the per-grid results are
    bit-identical to :func:`apply_stencil_padded`.

    Parameters
    ----------
    out_stack:
        Optional ``(ngrids, *block_shape)`` output stack.
    scratch:
        Optional single ``(2, nx, ny, nz)`` buffer shared across the batch.
    """
    if padded_stack.ndim != 4:
        raise ValueError(
            f"padded_stack must be 4-D (ngrids, nx, ny, nz), got "
            f"shape {padded_stack.shape}"
        )
    w = coeffs.radius
    n_grids = padded_stack.shape[0]
    padded_shape = padded_stack.shape[1:]
    _check_padded_shape(padded_shape, w)
    block_shape = tuple(s - 2 * w for s in padded_shape)
    stack_shape = (n_grids,) + block_shape
    if out_stack is None:
        out_stack = np.empty(stack_shape, dtype=padded_stack.dtype)
    else:
        _check_buffer("out_stack", out_stack, stack_shape, padded_stack.dtype,
                      padded_stack)
    scratch = _scratch(scratch, padded_shape, padded_stack.dtype,
                       padded_stack, out_stack)
    spans = _term_slices(padded_shape, w)
    for g in range(n_grids):
        _fused_apply(padded_stack[g], coeffs, out_stack[g], scratch, spans)
    return out_stack


def apply_stencil_global(
    array: np.ndarray,
    coeffs: StencilCoefficients,
    pbc: tuple[bool, bool, bool] = (True, True, True),
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    term_buf: np.ndarray | None = None,
    term_buf2: np.ndarray | None = None,
) -> np.ndarray:
    """Sequential oracle: apply the stencil to a full grid.

    Periodic axes wrap; non-periodic axes treat outside points as zero.
    The accumulation order mirrors :func:`_fused_apply` exactly, so
    distributed results are bit-identical to this oracle.

    All four buffers are optional and full-grid shaped; passing them
    (borrowed from a :class:`repro.core.workspace.Workspace`) makes the
    call allocation-free.  ``term_buf``/``term_buf2`` hold the shifted
    grids — the first add of each distance needs two simultaneously.
    The buffered path performs the same operations in the same order as
    the allocating one, so results stay bit-identical either way.
    """
    w = coeffs.radius
    for axis, size in enumerate(array.shape):
        if size < 2 * w and pbc[axis]:
            # A distance-w neighbour in opposite directions would reach the
            # same point through different wraps; the halo machinery cannot
            # represent that, so keep the semantics strict.
            raise ValueError(
                f"axis {axis} has {size} points < 2*radius {2 * w}; too "
                "small for a periodic stencil"
            )
    if out is None:
        out = np.empty_like(array)
    else:
        _check_buffer("out", out, array.shape, array.dtype, array)
    if scratch is None:
        scratch = np.empty_like(array)
    else:
        _check_buffer("scratch", scratch, array.shape, array.dtype, array, out)
    if term_buf is None:
        term_buf = np.empty_like(array)
    else:
        _check_buffer("term_buf", term_buf, array.shape, array.dtype,
                      array, out, scratch)
    if term_buf2 is None:
        term_buf2 = np.empty_like(array)
    else:
        _check_buffer("term_buf2", term_buf2, array.shape, array.dtype,
                      array, out, scratch, term_buf)

    def term(buf: np.ndarray, axis: int, dist: int, sign: int) -> np.ndarray:
        """Fill ``buf`` with the grid shifted so point p sees
        p + sign*dist along ``axis`` (the slab-copy form of np.roll)."""
        n = array.shape[axis]
        src: list[slice] = [slice(None)] * 3
        dst: list[slice] = [slice(None)] * 3
        if pbc[axis]:
            s = (-sign * dist) % n
            if s == 0:
                np.copyto(buf, array)
                return buf
            dst[axis] = slice(0, s)
            src[axis] = slice(n - s, None)
            buf[tuple(dst)] = array[tuple(src)]
            dst[axis] = slice(s, None)
            src[axis] = slice(0, n - s)
            buf[tuple(dst)] = array[tuple(src)]
            return buf
        gap: list[slice] = [slice(None)] * 3
        if sign < 0:
            src[axis] = slice(0, n - dist)
            dst[axis] = slice(dist, None)
            gap[axis] = slice(0, dist)
        else:
            src[axis] = slice(dist, None)
            dst[axis] = slice(0, n - dist)
            gap[axis] = slice(n - dist, None)
        buf[tuple(gap)] = 0.0
        buf[tuple(dst)] = array[tuple(src)]
        return buf

    np.multiply(array, coeffs.center, out=out)
    for dist in range(1, w + 1):
        weight = coeffs.weights[dist - 1]
        np.add(
            term(term_buf, 0, dist, -1),
            term(term_buf2, 0, dist, +1),
            out=scratch,
        )
        for axis in (1, 2):
            np.add(scratch, term(term_buf, axis, dist, -1), out=scratch)
            np.add(scratch, term(term_buf, axis, dist, +1), out=scratch)
        np.multiply(scratch, weight, out=scratch)
        np.add(out, scratch, out=out)
    return out
