"""Vectorized segment reductions over CSR-style index pointers.

A *segment* is the half-open slice ``values[indptr[i]:indptr[i+1]]``.  These
reductions are the core primitive behind every SpMV/SpMM kernel in the
library: one PageRank iteration is exactly a segment sum of per-edge
contributions grouped by destination vertex (:func:`gather_reduce`).

``np.add.reduceat`` is the fastest pure-NumPy way to do this, but it has a
well-known wart: for an empty segment it *returns the element at the start
index* instead of the reduction identity, and it cannot handle a start index
equal to ``len(values)``.  :func:`segment_sum` repairs both cases so callers
get mathematically correct results for arbitrary (possibly empty, possibly
trailing-empty) segments.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "segment_sum",
    "segment_sum_ordered",
    "gather_reduce",
    "segment_count",
    "segment_max",
    "segment_min",
    "row_lengths",
    "lengths_to_indptr",
    "indptr_to_row_ids",
]


def _check_indptr(indptr: np.ndarray, n_values: int) -> np.ndarray:
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or indptr.size == 0:
        raise ValidationError("indptr must be a non-empty 1-D array")
    if indptr[0] != 0:
        raise ValidationError(f"indptr[0] must be 0, got {indptr[0]}")
    if indptr[-1] != n_values:
        raise ValidationError(
            f"indptr[-1] ({indptr[-1]}) must equal len(values) ({n_values})"
        )
    if np.any(np.diff(indptr) < 0):
        raise ValidationError("indptr must be non-decreasing")
    return indptr


def segment_sum(
    values: np.ndarray,
    indptr: np.ndarray,
    out: np.ndarray = None,
) -> np.ndarray:
    """Sum ``values`` within each CSR segment.

    Parameters
    ----------
    values:
        1-D array of length ``nnz``, or 2-D ``(nnz, k)`` array in which case
        each column is reduced independently (the SpMM case).
    indptr:
        CSR index pointer of length ``n_segments + 1`` with
        ``indptr[0] == 0`` and ``indptr[-1] == nnz``.
    out:
        Optional preallocated result array of shape
        ``(n_segments,) + values.shape[1:]`` and matching dtype — a
        :class:`~repro.pagerank.workspace.Workspace` buffer in the hot
        kernels.  Its contents are fully overwritten.

    Returns
    -------
    numpy.ndarray
        ``(n_segments,)`` or ``(n_segments, k)`` array of per-segment sums;
        empty segments sum to exactly ``0``.
    """
    values = np.asarray(values)
    indptr = _check_indptr(indptr, values.shape[0])
    n_seg = indptr.size - 1
    out_shape = (n_seg,) + values.shape[1:]
    if out is None:
        out = np.zeros(out_shape, dtype=values.dtype)
    else:
        if out.shape != out_shape or out.dtype != values.dtype:
            raise ValidationError(
                f"out must have shape {out_shape} and dtype "
                f"{values.dtype}, got {out.shape}/{out.dtype}"
            )
        out.fill(0)
    if n_seg == 0 or values.shape[0] == 0:
        return out

    # reduceat over only the non-empty segments: consecutive non-empty
    # starts are exactly those segments' boundaries (empty segments have
    # start == end, so skipping them leaves the spans intact).  This also
    # avoids reduceat's inability to take a start index == len(values).
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(
            values, indptr[:-1][nonempty], axis=0
        )
    return out


def segment_sum_ordered(
    values: np.ndarray,
    row_ids: np.ndarray,
    n_rows: int,
    out: np.ndarray = None,
    scratch: np.ndarray = None,
) -> np.ndarray:
    """Left-to-right sequential segment sum keyed by per-entry row ids.

    :func:`segment_sum` (``np.add.reduceat``) is the fastest reduction but
    its floating-point rounding depends on each segment's *length*: NumPy's
    add loop sums pairwise, so the reduction tree — and the low bits of the
    result — change when exact-zero entries are inserted or removed.
    ``np.bincount`` accumulates strictly sequentially in array order, which
    makes this variant **zero-insertion invariant**: dropping entries whose
    value is exactly ``0.0`` cannot change the result bitwise (``x + 0.0``
    is exact for every non-negative ``x``).  The PageRank kernels reduce
    with it so their masked and compacted edge paths are bitwise-identical.

    Parameters
    ----------
    values:
        ``(nnz,)`` or ``(nnz, k)`` float contributions (columns reduced
        independently).
    row_ids:
        ``(nnz,)`` non-negative destination row per entry (need not be
        sorted; order only matters *within* a row).
    n_rows:
        Number of output rows.
    out:
        Optional ``(n_rows,)`` / ``(n_rows, k)`` float64 result buffer,
        fully overwritten.  ``np.bincount`` has no ``out=`` of its own, so
        its internal Θ(n_rows) allocation per call remains either way.
    scratch:
        Optional ``(nnz,)`` float64 buffer for the 2-D case: each strided
        column is staged through it so ``bincount`` reads contiguously
        (a one-column input is already contiguous and is read in place).
    """
    values = np.asarray(values)
    if values.shape[0] != row_ids.shape[0]:
        raise ValidationError(
            f"values and row_ids must agree on nnz, got "
            f"{values.shape[0]} != {row_ids.shape[0]}"
        )
    if values.ndim == 1:
        y = np.bincount(row_ids, weights=values, minlength=n_rows)
        if out is None:
            return y
        np.copyto(out, y)
        return out
    k = values.shape[1]
    if out is None:
        out = np.empty((n_rows, k), dtype=np.float64)
    for j in range(k):
        col = values[:, j]
        if scratch is not None and not col.flags.c_contiguous:
            np.copyto(scratch, col)
            col = scratch
        out[:, j] = np.bincount(row_ids, weights=col, minlength=n_rows)
    return out


def gather_reduce(
    w: np.ndarray,
    col: np.ndarray,
    rows: np.ndarray,
    n_rows: int,
    mask: np.ndarray = None,
    weights: np.ndarray = None,
    out: np.ndarray = None,
    contrib: np.ndarray = None,
    scratch: np.ndarray = None,
) -> np.ndarray:
    """One pull step: ``y[rows[e]] += w[col[e]] * mask[e] * weights[e]``.

    The per-iteration inner step of every pull kernel — gather the
    per-source shares along the edge list, zero inactive stored events
    (``mask``, the masked edge path), scale by per-edge multiplicities
    (``weights``, the weighted kernel), then reduce per destination with
    :func:`segment_sum_ordered`, whose strictly sequential accumulation
    keeps the masked and compacted edge paths bitwise-identical.

    ``w`` is ``(n,)`` for one rank vector or ``(n, k)`` for k stacked
    ones (SpMM), in which case ``mask`` is the ``(nnz, k)`` per-column
    activity.  ``out`` receives the result (fully overwritten),
    ``contrib`` is an optional ``(nnz,)``/``(nnz, k)`` float64 gather
    buffer and ``scratch`` the 2-D reduce's column staging buffer (see
    :func:`segment_sum_ordered`); all three are allocated per call when
    absent.
    """
    if contrib is None:
        c = np.take(w, col, axis=0)
    else:
        c = contrib
        np.take(w, col, axis=0, out=c)
    if mask is not None:
        c *= mask
    if weights is not None:
        c *= weights
    return segment_sum_ordered(c, rows, n_rows, out=out, scratch=scratch)


def segment_count(
    mask: np.ndarray,
    indptr: np.ndarray,
    cast_buffer: np.ndarray = None,
) -> np.ndarray:
    """Count ``True`` entries of a boolean ``mask`` within each segment.

    ``cast_buffer`` optionally supplies a reusable int64 array of the
    mask's shape for the bool→int64 widening (otherwise a fresh array is
    allocated per call).
    """
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise ValidationError("segment_count expects a boolean mask")
    if (
        cast_buffer is not None
        and cast_buffer.shape == mask.shape
        and cast_buffer.dtype == np.int64
    ):
        np.copyto(cast_buffer, mask)
        return segment_sum(cast_buffer, indptr)
    return segment_sum(mask.astype(np.int64), indptr)


def segment_max(values: np.ndarray, indptr: np.ndarray, empty_value=0):
    """Per-segment maximum; empty segments get ``empty_value``."""
    values = np.asarray(values)
    indptr = _check_indptr(indptr, values.shape[0])
    n_seg = indptr.size - 1
    out = np.full((n_seg,) + values.shape[1:], empty_value, dtype=values.dtype)
    if values.shape[0] == 0 or n_seg == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(
            values, indptr[:-1][nonempty], axis=0
        )
    return out


def segment_min(values: np.ndarray, indptr: np.ndarray, empty_value=0):
    """Per-segment minimum; empty segments get ``empty_value``."""
    values = np.asarray(values)
    indptr = _check_indptr(indptr, values.shape[0])
    n_seg = indptr.size - 1
    out = np.full((n_seg,) + values.shape[1:], empty_value, dtype=values.dtype)
    if values.shape[0] == 0 or n_seg == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.any():
        out[nonempty] = np.minimum.reduceat(
            values, indptr[:-1][nonempty], axis=0
        )
    return out


def row_lengths(indptr: np.ndarray) -> np.ndarray:
    """Segment lengths ``indptr[i+1] - indptr[i]``."""
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or indptr.size == 0:
        raise ValidationError("indptr must be a non-empty 1-D array")
    return np.diff(indptr)


def lengths_to_indptr(lengths: np.ndarray) -> np.ndarray:
    """Build a CSR index pointer from per-segment lengths."""
    lengths = np.asarray(lengths)
    if lengths.ndim != 1:
        raise ValidationError("lengths must be 1-D")
    if lengths.size and lengths.min() < 0:
        raise ValidationError("lengths must be non-negative")
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def indptr_to_row_ids(indptr: np.ndarray) -> np.ndarray:
    """Expand a CSR index pointer into a per-entry row-id array.

    The inverse of grouping: ``row_ids[j] == i`` iff entry ``j`` lies in
    segment ``i``.  Vectorized via ``np.repeat``.
    """
    indptr = np.asarray(indptr)
    lengths = row_lengths(indptr)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
