"""The SpMM-inspired postmortem PageRank kernel (paper Section 4.4).

When several windows live in the *same* multi-window graph, their PageRank
iterations share the structure arrays (``rowA``/``colA``/``timeA``).  The
SpMM kernel keeps the k in-flight PageRank vectors as the columns of one
iterate and performs one iteration for all k windows in a single pass over
the structure:

    W[n, k]       = X * inv_outdeg[:, window]         # per-source shares
    C[nnz, k]     = W[colA, :] * active[nnz, k]       # one gather for all k
    Y[n, k]       = segment_sum_ordered(C, rowA)      # one reduction pass

The structure is read once per iteration instead of k times, and the
gathered rows of ``W`` are contiguous — the access-pattern regularization
the paper borrows from classic SpMM.

The iteration itself is :func:`~repro.pagerank.spmv.power_iteration`, the
loop SpMV runs at k=1: converged columns freeze while the rest keep
iterating, and every column does its vertex-side arithmetic exactly as
SpMV does, so column j is bitwise equal to
:func:`~repro.pagerank.spmv.pagerank_window` on ``views[j]`` — values,
iterations, residual and converged flag.  This module only sets the batch
up: the stacked per-window edge masks (or, with
``config.edge_path="compacted"``, the packed **union** of the k windows'
active edges, :func:`~repro.pagerank.compaction.compact_pull_union`) and
the per-column inverse out-degrees.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.temporal_csr import WindowView
from repro.pagerank.compaction import pull_edges
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import BatchPagerankResult
from repro.pagerank.spmv import pagerank_columns, pull_step
from repro.pagerank.workspace import Workspace

__all__ = ["pagerank_windows_spmm"]


def pagerank_windows_spmm(
    views: Sequence[WindowView],
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
    iteration_hint: Optional[int] = None,
) -> BatchPagerankResult:
    """Solve k windows of one multi-window graph simultaneously.

    Parameters
    ----------
    views:
        Window views that must all share the same
        :class:`~repro.graph.temporal_csr.TemporalAdjacency`.
    x0:
        Optional ``(n, k)`` initial matrix (column j initializes
        ``views[j]``); columns default to full initialization.
    workspace:
        Optional :class:`~repro.pagerank.workspace.Workspace` (a fresh one
        when absent).  The stacked structure matrices (the ``(nnz, k)``
        dedup mask — the batch's dominant allocation — and the inverse
        degrees) and the per-iteration gather/reduce buffers are recycled
        across batches of a chain.  Returned values are always freshly
        owned.

    Returns
    -------
    BatchPagerankResult
        ``values[:, j]`` is the PageRank of ``views[j].window``.
    """
    ws = workspace if workspace is not None else Workspace()
    col, rows, masks = pull_edges(views, config, ws, iteration_hint)
    adjacency = views[0].adjacency
    n = adjacency.n_vertices
    inv_out = ws.buffer("pr.inv_out", (len(views), n), np.float64)
    # row-at-a-time fill: a workspace-built view's inverse_out_degrees
    # returns shared pooled scratch, so each result must be copied out
    # before the next view's call overwrites it
    for j, v in enumerate(views):
        inv_out[j] = v.inverse_out_degrees()
    propagate = pull_step(col, rows, n, masks, ws, adjacency.in_csr.nnz)
    return pagerank_columns(
        views, config, x0, ws, inv_out, propagate, col.size, masks
    )
