"""The SpMV-style postmortem PageRank kernel and the shared power iteration.

One power iteration is a *pull* over the temporal CSR's in-orientation:

    y[v] = alpha/|V_i| + (1 - alpha) * Σ_{active in-edges (u, v)} x[u] / outdeg_i(u)

implemented as fully-vectorized NumPy (per the HPC-Python guides: gather +
masked multiply + a sequential segment sum; no Python-level edge loop):

    w       = x * inv_outdeg                         # per-source share
    contrib = where(dedup_mask, w[colA], 0)          # per-stored-event
    y       = segment_sum_ordered(contrib, rowA)     # per-destination

The gather→reduce step is :func:`~repro.utils.segments.gather_reduce`;
its reduction (strictly left-to-right within each destination) is what
makes the two edge paths below bitwise-interchangeable — a pairwise
``reduceat`` would round differently depending on how many masked zeros
pad each row.

The **masked** path traverses the whole stored structure (all ``nnz``
events of the multi-window graph) each iteration and zeroes inactive
events.  The **compacted** path (:mod:`repro.pagerank.compaction`) packs
the active deduped edges once per window and iterates over only the
Θ(|E_w|) packed arrays — bitwise-identical output, literal per-iteration
Θ(|E_w|) work.  ``config.edge_path`` selects between them (``"auto"``
asks the cost model, using the chain's ``iteration_hint`` when the driver
supplies one).

:func:`power_iteration` is the loop around that step.  The weighted
(:mod:`repro.pagerank.weighted`) and propagation-blocking
(:mod:`repro.pagerank.propagation_blocking`) kernels run it too, each
supplying only its inverse-degree vector, dangling set, propagate step and
per-iteration edge counts.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.temporal_csr import WindowView
from repro.pagerank.compaction import resolve_edge_path
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import full_initialization
from repro.pagerank.result import PagerankResult, WorkStats
from repro.pagerank.workspace import Workspace
from repro.utils.segments import gather_reduce

__all__ = ["pagerank_window", "power_iteration"]

#: ``propagate(w, out)``: write ``Σ_{(u, v)} w[u]`` over the window's
#: in-edges into ``out`` (fully overwritten)
Propagate = Callable[[np.ndarray, np.ndarray], np.ndarray]


def power_iteration(
    view: WindowView,
    config: PagerankConfig,
    x0: Optional[np.ndarray],
    workspace: Workspace,
    inv_degree: np.ndarray,
    dangling_idx: np.ndarray,
    propagate: Propagate,
    edge_traversals: int,
    active_edge_traversals: int,
) -> PagerankResult:
    """Run PageRank's power iteration on one non-empty window.

    Parameters
    ----------
    view:
        The window (activity mask, active vertex count, index).
    x0:
        Optional initial vector; defaults to the uniform full
        initialization.
    workspace:
        Supplies the rank ping-pong pair and the share, residual and
        dangling scratch, so a multi-window chain pays the allocator once
        instead of per window per iteration.  The returned values are
        always a freshly owned array.
    inv_degree:
        ``(n,)`` per-source normalizer (inverse out-degree, or inverse
        out-strength for the weighted kernel); 0 for dangling sources.
    dangling_idx:
        Active vertices without out-edges, whose mass ``"uniform"``
        dangling redistributes.
    propagate:
        The kernel's gather→reduce step (see :data:`Propagate`).
    edge_traversals / active_edge_traversals:
        Per-iteration :class:`~repro.pagerank.result.WorkStats` counts.
    """
    n = view.adjacency.n_vertices
    n_active = view.n_active_vertices
    active_mask = view.active_vertices_mask
    ws = workspace
    # ping-pong rank buffers: x and y alternate between the pair so an
    # iteration never reads the array it is writing
    rank0 = ws.buffer("pr.rank0", (n,), np.float64)
    rank1 = ws.buffer("pr.rank1", (n,), np.float64)
    w_buf = ws.buffer("pr.w", (n,), np.float64)
    resid = ws.buffer("pr.resid", (n,), np.float64)
    # sized (n,) and sliced, so windows with different dangling counts
    # reuse one buffer instead of reallocating per window
    dang_buf = ws.buffer("pr.dangling", (n,), np.float64)[: dangling_idx.size]

    if x0 is None:
        x = full_initialization(view)
    else:
        x = np.asarray(x0, dtype=np.float64)
        if x.shape != (n,):
            raise ValidationError(
                f"x0 must have shape ({n},), got {x.shape}"
            )
    np.copyto(rank0, x)
    x = rank0

    alpha = config.alpha
    damping = config.damping
    teleport = alpha / n_active
    residual = np.inf
    work = WorkStats()

    for it in range(1, config.max_iterations + 1):
        t_prop = time.perf_counter()
        np.multiply(x, inv_degree, out=w_buf)
        y = rank1 if x is rank0 else rank0
        propagate(w_buf, y)
        work.propagate_seconds += time.perf_counter() - t_prop
        y *= damping
        if config.dangling == "uniform" and dangling_idx.size:
            np.take(x, dangling_idx, out=dang_buf)
            dangling_mass = float(dang_buf.sum())
            if dangling_mass:
                y[active_mask] += damping * dangling_mass / n_active
        y[active_mask] += teleport
        y[~active_mask] = 0.0

        np.subtract(y, x, out=resid)
        np.abs(resid, out=resid)
        residual = float(resid.sum())
        x = y
        work.iterations += 1
        work.edge_traversals += edge_traversals
        work.active_edge_traversals += active_edge_traversals
        work.vertex_ops += n_active
        if residual < config.tolerance:
            return PagerankResult(x.copy(), it, True, residual, work)

    if config.strict:
        raise ConvergenceError(
            f"window {view.window.index} did not converge in "
            f"{config.max_iterations} iterations (residual {residual:.3e})"
        )
    return PagerankResult(
        x.copy(), config.max_iterations, False, residual, work
    )


def pagerank_window(
    view: WindowView,
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
    iteration_hint: Optional[int] = None,
) -> PagerankResult:
    """Compute PageRank for one window of a temporal adjacency.

    Parameters
    ----------
    view:
        Precomputed :class:`~repro.graph.temporal_csr.WindowView` (activity
        masks, degrees, active vertex set).
    config:
        Solver parameters, including ``edge_path`` (see module docstring).
    x0:
        Optional initial vector (e.g. from
        :func:`~repro.pagerank.init.partial_initialization`); defaults to
        the uniform full initialization.
    workspace:
        Optional :class:`~repro.pagerank.workspace.Workspace` supplying the
        per-iteration scratch (share vector, Θ(nnz) contribution buffer,
        rank ping-pong pair, residual buffer); drivers pass the chain's
        pooled one, and a fresh one is used when absent.  Results are
        bitwise-identical either way; the returned values are always a
        freshly owned array.
    iteration_hint:
        Expected iteration count for the ``edge_path="auto"`` decision —
        drivers pass the chain's previous window count.

    Returns
    -------
    PagerankResult
        Values live in the view's (local) vertex space; inactive vertices
        hold exactly 0.
    """
    n = view.adjacency.n_vertices
    if view.n_active_vertices == 0:
        return PagerankResult.inactive(n)
    ws = workspace if workspace is not None else Workspace()

    in_csr = view.adjacency.in_csr
    nnz = in_csr.nnz
    path = resolve_edge_path(
        config, nnz, view.n_active_edges, n, iteration_hint
    )
    if path == "compacted":
        packed = view.compact_pull(workspace=ws)
        col, rows, mask = packed.col, packed.rows, None
    else:
        col, rows, mask = in_csr.col, in_csr.row_ids(), view.in_dedup
    contrib = ws.buffer("pr.contrib", (nnz,), np.float64)[: col.size]

    def propagate(w: np.ndarray, out: np.ndarray) -> np.ndarray:
        return gather_reduce(
            w, col, rows, n, mask=mask, out=out, contrib=contrib
        )

    # precomputed dangling index set: the boolean-mask formulation
    # (`x[dangling].sum()`) re-scans and copies Θ(n) every iteration
    dangling_idx = np.flatnonzero(
        view.active_vertices_mask & (view.out_degrees == 0)
    )
    return power_iteration(
        view, config, x0, ws, view.inverse_out_degrees(), dangling_idx,
        propagate, col.size, view.n_active_edges,
    )
