"""The SpMM-inspired postmortem PageRank kernel (paper Section 4.4).

When several windows live in the *same* multi-window graph, their PageRank
iterations share the structure arrays (``rowA``/``colA``/``timeA``).  The
SpMM kernel keeps the k in-flight PageRank vectors as an ``(n, k)`` matrix
and performs one iteration for all k windows in a single pass over the
structure:

    W[n, k]       = X * inv_outdeg[:, window]         # per-source shares
    C[nnz, k]     = W[colA, :] * active[nnz, k]       # one gather for all k
    Y[n, k]       = segment_sum_ordered(C, rowA)      # one reduction pass

The structure is read once per iteration instead of k times, and the
gathered rows of ``W`` are contiguous — the access-pattern regularization
the paper borrows from classic SpMM.  Windows may converge at different
iterations; converged columns are frozen (their values stop changing) while
the remaining columns keep iterating, and per-column iteration counts are
reported.

With ``config.edge_path="compacted"`` the kernel packs the **union** of
the k windows' active deduped edges once per batch
(:func:`~repro.pagerank.compaction.compact_pull_union`): the strided
region schedule batches windows that are far apart in time, so the union
is typically a small fraction of nnz and the shared structure pass
shrinks accordingly.  Bitwise-identical to the masked batch.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.temporal_csr import WindowView
from repro.pagerank.compaction import compact_pull_union, resolve_edge_path
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import full_initialization
from repro.pagerank.result import BatchPagerankResult, WorkStats
from repro.pagerank.workspace import Workspace
from repro.utils.segments import gather_reduce

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
        dedup mask — the batch's dominant allocation — plus
        degrees/activity) and the per-iteration gather/reduce buffers are
        recycled across same-width batches of a chain.  Once columns start
        converging the live subset shrinks and the kernel falls back to
        the allocating slow path for those iterations; results are
        bitwise-identical either way, and returned values are always
        freshly owned.

    Returns
    -------
    BatchPagerankResult
        ``values[:, j]`` is the PageRank of ``views[j].window``.
    """
    if not views:
        raise ValidationError("need at least one window view")
    adjacency = views[0].adjacency
    for v in views[1:]:
        if v.adjacency is not adjacency:
            raise ValidationError(
                "SpMM kernel requires all windows from the same "
                "multi-window graph"
            )

    n = adjacency.n_vertices
    k = len(views)
    in_csr = adjacency.in_csr
    nnz = in_csr.nnz
    ws = workspace if workspace is not None else Workspace()
    active_edge_counts = np.array(
        [v.n_active_edges for v in views], dtype=np.int64
    )

    # the union can't exceed the sum of the windows' active edges (nor
    # nnz), so that bound stands in for its size in the auto decision —
    # computing the real union only to discard it would cost the very
    # Θ(nnz·k) pass the masked path avoids paying twice
    est_union = min(nnz, int(active_edge_counts.sum()))
    path = resolve_edge_path(config, nnz, est_union, n, iteration_hint)

    # per-window structure data: per-edge masks and (n, k) degrees
    if path == "compacted":
        packed = compact_pull_union(views, workspace=ws)
        col, rows, dedup = packed.col, packed.rows, packed.active
    else:
        dedup = np.stack(
            [v.in_dedup for v in views], axis=1,
            out=ws.buffer("spmm.dedup", (nnz, k), np.bool_),
        )
        col, rows = in_csr.col, in_csr.row_ids()
    it_nnz = col.size

    inv_out = ws.buffer("spmm.inv_out", (n, k), np.float64)
    active = np.stack(
        [v.active_vertices_mask for v in views], axis=1,
        out=ws.buffer("spmm.active", (n, k), np.bool_),
    )
    dangling = np.stack(
        [v.out_degrees == 0 for v in views], axis=1,
        out=ws.buffer("spmm.dangling", (n, k), np.bool_),
    )
    dangling &= active
    # column-at-a-time fill: a workspace-built view's inverse_out_degrees
    # returns shared pooled scratch, so each result must be copied out
    # before the next view's call overwrites it
    for j, v in enumerate(views):
        inv_out[:, j] = v.inverse_out_degrees()
    n_active = np.array([v.n_active_vertices for v in views], dtype=np.int64)

    X = ws.buffer("spmm.X", (n, k), np.float64)
    if x0 is None:
        np.stack([full_initialization(v) for v in views], axis=1, out=X)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n, k):
            raise ValidationError(
                f"x0 must have shape ({n}, {k}), got {x0.shape}"
            )
        np.copyto(X, x0)

    work = WorkStats()
    alpha = config.alpha
    damping = config.damping
    safe_active = np.maximum(n_active, 1)
    teleport = np.where(n_active > 0, alpha / safe_active, 0.0)

    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.full(k, np.inf, dtype=np.float64)
    converged = n_active == 0  # empty windows are trivially done
    residuals[converged] = 0.0
    X[:, converged] = 0.0

    live = ~converged
    it = 0
    while live.any() and it < config.max_iterations:
        it += 1
        idx = np.flatnonzero(live)
        t_prop = time.perf_counter()
        if idx.size == k:
            # full-width fast path: every window still live, so the
            # workspace buffers apply directly with no column selection
            Xl = X
            W = np.multiply(
                X, inv_out, out=ws.buffer("spmm.W", (n, k), np.float64)
            )
            Y = gather_reduce(
                W, col, rows, n, mask=dedup,
                out=ws.buffer("spmm.Y", (n, k), np.float64),
                contrib=ws.buffer("spmm.C", (nnz, k), np.float64)[:it_nnz],
                scratch=ws.buffer("spmm.colbuf", (nnz,), np.float64)[:it_nnz],
            )
            act = active
            dang = dangling
        else:
            Xl = X[:, idx]
            W = Xl * inv_out[:, idx]
            # one structure pass for every live window (over the packed
            # union when compacted — column selection composes with it)
            Y = gather_reduce(W, col, rows, n, mask=dedup[:, idx])
            act = active[:, idx]
            dang = dangling[:, idx]
        work.propagate_seconds += time.perf_counter() - t_prop
        Y *= damping
        if config.dangling == "uniform":
            dmass = np.sum(Xl * dang, axis=0)
            Y += (damping * dmass / safe_active[idx]) * act
        Y += teleport[idx] * act
        Y[~act] = 0.0

        res = np.abs(Y - Xl).sum(axis=0)
        X[:, idx] = Y
        iterations[idx] += 1
        residuals[idx] = res

        work.iterations += 1
        work.edge_traversals += it_nnz  # one shared structure pass
        work.active_edge_traversals += int(active_edge_counts[idx].sum())
        work.vertex_ops += int(n_active[idx].sum())

        newly = res < config.tolerance
        converged[idx[newly]] = True
        live = ~converged

    if config.strict and not converged.all():
        bad = [views[j].window.index for j in np.flatnonzero(~converged)]
        raise ConvergenceError(
            f"windows {bad} did not converge in {config.max_iterations} "
            f"iterations"
        )

    return BatchPagerankResult(
        values=X.copy(),
        window_indices=[v.window.index for v in views],
        iterations_per_window=iterations,
        converged=converged,
        residuals=residuals,
        work=work,
    )
