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

:func:`power_iteration` is the loop around that step, and the only one:
it advances k vectors as the columns of one ``(n, k)`` iterate, so the
SpMM kernel (:mod:`repro.pagerank.spmm`) is this loop at width k and
SpMV is its k=1 case.  Every column's vertex-side arithmetic (dangling
mass, teleport, residual) is a separate 1-D computation in one fixed
order, so each SpMM column is bitwise equal to SpMV on its window.  The
weighted (:mod:`repro.pagerank.weighted`) and propagation-blocking
(:mod:`repro.pagerank.propagation_blocking`) kernels run it at k=1, and
Katz (:mod:`repro.programs.katz`) runs it with its own vertex step.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.temporal_csr import WindowView
from repro.pagerank.compaction import pull_edges
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import full_initialization
from repro.pagerank.result import BatchPagerankResult, PagerankResult, WorkStats
from repro.pagerank.workspace import Workspace
from repro.utils.segments import gather_reduce

__all__ = [
    "pagerank_columns",
    "pagerank_window",
    "power_iteration",
    "pull_step",
    "start_vector",
]

#: ``propagate(W, out)``: for the kl live columns, write
#: ``out[v, p] = Σ_{(u, v)} W[u, p]`` over column p's in-edges; ``W`` and
#: ``out`` are ``(n, kl)`` and ``out`` is fully overwritten
Propagate = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: ``update(j, x, y)``: turn column j's propagated sums ``y`` (in place)
#: into its next iterate, given its current iterate ``x``, and return the
#: residual that decides its convergence
Update = Callable[[int, np.ndarray, np.ndarray], float]


def start_vector(x0, shape: Tuple[int, ...]) -> np.ndarray:
    """``x0`` as float64, checked against the kernel's expected shape."""
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != shape:
        raise ValidationError(f"x0 must have shape {shape}, got {x.shape}")
    return x


def pull_step(
    col: np.ndarray,
    rows: np.ndarray,
    n: int,
    masks: Optional[np.ndarray],
    workspace: Workspace,
    capacity: int,
    weights: Optional[np.ndarray] = None,
) -> Propagate:
    """The gather→reduce :data:`Propagate` step over one edge list.

    ``masks`` is the ``(m, k)`` per-column edge activity (``None`` when
    every edge is active in every column); :func:`power_iteration` keeps
    its columns aligned with the live columns.  ``weights`` are optional
    per-edge multiplicities shared by all columns.  The gather buffer is
    pooled at ``capacity * k`` (the structure's nnz, constant along a
    chain) and sliced to the live width.
    """
    m = col.size
    k = 1 if masks is None else masks.shape[1]
    contrib = workspace.buffer("pr.contrib", (capacity * k,), np.float64)
    staging = (
        workspace.buffer("pr.colbuf", (capacity,), np.float64)[:m]
        if k > 1 else None
    )
    if weights is not None:
        weights = weights[:, None]

    def propagate(W: np.ndarray, out: np.ndarray) -> np.ndarray:
        kl = W.shape[1]
        return gather_reduce(
            W, col, rows, n,
            mask=None if masks is None else masks[:, :kl],
            weights=weights, out=out,
            contrib=contrib[: m * kl].reshape(m, kl), scratch=staging,
        )

    return propagate


def power_iteration(
    starts: Sequence[np.ndarray],
    config,
    workspace: Workspace,
    propagate: Propagate,
    update: Update,
    windows: Sequence[Optional[int]],
    n_active: Sequence[int],
    active_edges: Sequence[int],
    edge_traversals: int,
    share: Optional[np.ndarray] = None,
    masks: Optional[np.ndarray] = None,
) -> BatchPagerankResult:
    """Advance k vectors together until each converges.

    One iteration forms the live columns' per-source shares ``W``
    (the iterate times ``share``, or the iterate itself), propagates them
    in one structure pass, and hands each live column to ``update``.  A
    column whose residual drops below ``config.tolerance`` freezes: its
    iterate is recorded and it leaves the live set while the others keep
    iterating.  Empty columns (``n_active == 0``) converge at iteration 0
    with all-zero values.

    Parameters
    ----------
    starts:
        ``(n,)`` initial vector per column.
    config:
        Supplies ``tolerance``, ``max_iterations`` and ``strict``.
    workspace:
        Supplies the iterate ping-pong pair and the share buffer, so a
        multi-window chain pays the allocator once instead of per window
        per iteration.  Returned values are always freshly owned.
    windows:
        Per-column label: the window index, or ``None`` for a snapshot.
    n_active / active_edges:
        Per-column active vertices and per-iteration active edges, for
        the :class:`~repro.pagerank.result.WorkStats` counts.
    edge_traversals:
        Edges one structure pass touches, shared by all live columns.
    share:
        Optional ``(k, n)`` per-source normalizer (inverse out-degree or
        out-strength).
    masks:
        The ``(m, k)`` column masks ``propagate`` reads.  The live
        columns are kept as a prefix: a converged column's row of
        ``share`` and column of ``masks`` are overwritten by the last
        live one, so for k > 1 both must be scratch owned by this solve.
    """
    k = len(starts)
    n = starts[0].shape[0]
    ws = workspace
    # ping-pong iterates, one row per column: an iteration reads rows of
    # X and writes the same rows of Y, never the array it is reading
    X = ws.buffer("pr.rank0", (k, n), np.float64)
    Y = ws.buffer("pr.rank1", (k, n), np.float64)
    shares = ws.buffer("pr.w", (n * k,), np.float64)
    for p, x in enumerate(starts):
        X[p] = x

    values = np.zeros((n, k), dtype=np.float64)
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=np.bool_)
    residuals = np.zeros(k, dtype=np.float64)
    live: List[int] = list(range(k))  # live[p]: the column in row p
    work = WorkStats()

    def leave(p: int, state: np.ndarray) -> None:
        # move the last live column into row p so the live columns stay
        # a prefix of every per-column array
        last = len(live) - 1
        if p != last:
            live[p] = live[last]
            state[p] = state[last]
            if share is not None:
                share[p] = share[last]
            if masks is not None:
                masks[:, p] = masks[:, last]
        live.pop()

    for p in reversed(range(k)):
        if not n_active[p]:
            converged[p] = True
            leave(p, X)

    for it in range(1, config.max_iterations + 1):
        kl = len(live)
        if not kl:
            break
        t_prop = time.perf_counter()
        W = shares[: n * kl].reshape(n, kl)
        if share is None:
            np.copyto(W, X[:kl].T)
        else:
            np.multiply(X[:kl].T, share[:kl].T, out=W)
        propagate(W, Y[:kl].T)
        work.propagate_seconds += time.perf_counter() - t_prop

        done = []
        for p, j in enumerate(live):
            residuals[j] = update(j, X[p], Y[p])
            if residuals[j] < config.tolerance:
                done.append(p)
        iterations[live] = it
        work.iterations += 1
        work.edge_traversals += edge_traversals
        work.active_edge_traversals += sum(active_edges[j] for j in live)
        work.vertex_ops += sum(n_active[j] for j in live)
        for p in reversed(done):
            j = live[p]
            converged[j] = True
            values[:, j] = Y[p]
            leave(p, Y)
        X, Y = Y, X

    for p, j in enumerate(live):
        values[:, j] = X[p]
    if config.strict and live:
        raise ConvergenceError("; ".join(
            f"{'snapshot' if windows[j] is None else f'window {windows[j]}'}"
            f" did not converge in {config.max_iterations} iterations "
            f"(residual {residuals[j]:.3e})"
            for j in sorted(live)
        ))
    return BatchPagerankResult(
        values=values,
        window_indices=list(windows),
        iterations_per_window=iterations,
        converged=converged,
        residuals=residuals,
        work=work,
    )


def pagerank_columns(
    views: Sequence[WindowView],
    config: PagerankConfig,
    x0: Optional[np.ndarray],
    workspace: Workspace,
    share: np.ndarray,
    propagate: Propagate,
    edge_traversals: int,
    masks: Optional[np.ndarray] = None,
    dangling: Optional[Sequence[np.ndarray]] = None,
) -> BatchPagerankResult:
    """PageRank's vertex step on :func:`power_iteration` over ``views``.

    ``x0`` is an optional ``(n, k)`` start (full initialization per
    column when absent); ``share`` the ``(k, n)`` inverse out-degrees (or
    out-strengths); ``dangling`` each column's active vertices without
    out-edges, whose mass ``"uniform"`` dangling redistributes (zero
    out-degree vertices when absent).
    """
    n = views[0].adjacency.n_vertices
    if dangling is None:
        # precomputed index sets: the boolean-mask formulation
        # (`x[dangling].sum()`) re-scans and copies Θ(n) every iteration
        dangling = [
            np.flatnonzero(v.active_vertices_mask & (v.out_degrees == 0))
            for v in views
        ]
    if x0 is None:
        starts = [full_initialization(v) for v in views]
    else:
        starts = list(start_vector(x0, (n, len(views))).T)
    active = [v.active_vertices_mask for v in views]
    inactive = [~a for a in active]
    n_active = [v.n_active_vertices for v in views]
    damping = config.damping
    uniform = config.dangling == "uniform"
    resid = workspace.buffer("pr.resid", (n,), np.float64)
    # sized (n,) and sliced, so windows with different dangling counts
    # reuse one buffer instead of reallocating per window
    dang_buf = workspace.buffer("pr.dangling", (n,), np.float64)

    def update(j: int, x: np.ndarray, y: np.ndarray) -> float:
        y *= damping
        if uniform and dangling[j].size:
            mass_buf = dang_buf[: dangling[j].size]
            np.take(x, dangling[j], out=mass_buf)
            dangling_mass = float(mass_buf.sum())
            if dangling_mass:
                y[active[j]] += damping * dangling_mass / n_active[j]
        y[active[j]] += config.alpha / n_active[j]
        y[inactive[j]] = 0.0
        np.subtract(y, x, out=resid)
        np.abs(resid, out=resid)
        return float(resid.sum())

    return power_iteration(
        starts, config, workspace, propagate, update,
        [v.window.index for v in views], n_active,
        [v.n_active_edges for v in views], edge_traversals,
        share=share, masks=masks,
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
    if x0 is not None:
        x0 = start_vector(x0, (n,))[:, None]
    ws = workspace if workspace is not None else Workspace()
    col, rows, masks = pull_edges([view], config, ws, iteration_hint)
    propagate = pull_step(
        col, rows, n, masks, ws, view.adjacency.in_csr.nnz
    )
    return pagerank_columns(
        [view], config, x0, ws, view.inverse_out_degrees()[None],
        propagate, col.size, masks,
    ).single()
