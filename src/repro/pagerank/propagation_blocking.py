"""Propagation-blocking PageRank (Beamer, Asanović & Patterson, IPDPS'17).

The paper cites propagation blocking as a compatible communication
optimization it does not use ("we believe it is compatible").  This module
implements it for the temporal window kernels: the push-style iteration is
split into a **binning** phase — per-edge contributions are written into
destination-range bins that each fit in cache — and an **accumulation**
phase that reduces one bin at a time, converting the scattered random
writes of a plain push into two streaming passes.

On real hardware this wins when the PageRank vector exceeds cache; a NumPy
implementation cannot expose that cache effect, but the kernel is
algorithmically faithful (two phases, contiguous per-bin accumulation) and
produces bit-identical iterations to the pull kernel, which the tests and
the ablation bench verify.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.graph.temporal_csr import WindowView
from repro.pagerank.compaction import compact_push
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import PagerankResult
from repro.pagerank.spmv import pagerank_columns, start_vector
from repro.pagerank.workspace import Workspace

__all__ = [
    "PropagationBlockingKernel",
    "accumulate_binned",
    "pagerank_window_pb",
]


def accumulate_binned(
    contrib: np.ndarray,
    dst: np.ndarray,
    bin_starts: np.ndarray,
    bin_ends: np.ndarray,
    bin_width: int,
    out: np.ndarray,
) -> np.ndarray:
    """Per-bin sequential accumulation (the PB accumulation phase).

    ``contrib``/``dst`` are grouped by destination bin (bin ``b`` spans
    ``bin_starts[b]:bin_ends[b]``); each bin's sums land in
    ``out[b*bin_width : b*bin_width + width]`` additively, so ``out`` must
    arrive zero-filled.  ``np.bincount`` keeps the within-destination
    accumulation strictly sequential, which is why the PB kernel is
    bitwise-invariant in the bin width.
    """
    n = out.shape[0]
    for b in range(bin_starts.size):
        lo, hi = int(bin_starts[b]), int(bin_ends[b])
        if lo == hi:
            continue
        base = b * bin_width
        width = min(bin_width, n - base)
        out[base: base + width] += np.bincount(
            dst[lo:hi] - base, weights=contrib[lo:hi], minlength=width
        )
    return out


class PropagationBlockingKernel:
    """Reusable binned-push kernel state for one window view.

    The bin permutation is computed once per window: out-oriented active
    edges are grouped by destination bin (``dst // bin_width``), so each
    iteration only gathers, scatters into bin-contiguous buffers, and
    accumulates bin by bin with :func:`accumulate_binned`.  The output is
    bitwise-invariant in the bin width (each destination lives in one
    bin; the stable sort preserves within-destination order).
    """

    def __init__(
        self, view: WindowView, n_bins: int = 16,
        workspace: Optional[Workspace] = None,
    ) -> None:
        if n_bins <= 0:
            raise ValidationError("n_bins must be > 0")
        self.view = view
        self.workspace = workspace if workspace is not None else Workspace()

        # PB is inherently compacted: it always packs the window's active
        # out-edges into workspace scratch; the argsort below then
        # produces owned, bin-grouped copies of the slices
        self.src, self.dst = compact_push(view, workspace=self.workspace)
        self.n_vertices = view.adjacency.n_vertices

        self.n_bins = min(n_bins, max(self.n_vertices, 1))
        bin_width = -(-self.n_vertices // self.n_bins)
        bins = self.dst // max(bin_width, 1)
        order = np.argsort(bins, kind="stable")
        self.src = self.src[order]
        self.dst = self.dst[order]
        bins = bins[order]
        # bin boundaries in the permuted edge array
        self.bin_starts = np.searchsorted(bins, np.arange(self.n_bins))
        self.bin_ends = np.searchsorted(
            bins, np.arange(self.n_bins), side="right"
        )
        self.bin_width = bin_width

    def iterate(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One push phase: ``y[v] = Σ_{(u, v) active} w[u]`` via binning.

        ``w`` is the per-source share vector (``x * inv_outdeg``); ``out``
        receives the result in place (fully overwritten).  The gather
        buffer is recycled across iterations through the kernel's
        workspace.
        """
        # phase 1: binning — one streaming gather into bin-grouped buffers
        contrib = self.workspace.buffer(
            "pb.contrib", (self.src.size,), np.float64
        )
        np.take(w, self.src, out=contrib)
        # phase 2: per-bin accumulation — each bin's destination range is
        # contiguous and cache-sized
        out.fill(0)
        return accumulate_binned(
            contrib, self.dst, self.bin_starts, self.bin_ends,
            self.bin_width, out,
        )


def pagerank_window_pb(
    view: WindowView,
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    n_bins: int = 16,
    kernel: Optional[PropagationBlockingKernel] = None,
    workspace: Optional[Workspace] = None,
) -> PagerankResult:
    """Window PageRank with the propagation-blocking push kernel.

    Produces the same iterates as :func:`~repro.pagerank.spmv.
    pagerank_window` (the reduction order differs only within bins).
    ``workspace`` recycles the gather and rank scratch across windows (the
    kernel's own workspace when absent); returned values are always
    freshly owned.
    """
    n = view.adjacency.n_vertices
    if kernel is None:
        kernel = PropagationBlockingKernel(
            view, n_bins=n_bins, workspace=workspace
        )
    ws = workspace if workspace is not None else kernel.workspace
    if x0 is not None:
        x0 = start_vector(x0, (n,))[:, None]

    def propagate(W: np.ndarray, out: np.ndarray) -> np.ndarray:
        return kernel.iterate(W[:, 0], out[:, 0])

    return pagerank_columns(
        [view], config, x0, ws, view.inverse_out_degrees()[None],
        propagate, kernel.src.size,
    ).single()
