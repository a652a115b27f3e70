"""Slow, obviously-correct PageRank implementations used as test oracles.

Two references:

* :func:`pagerank_dense_reference` — builds the dense transition matrix and
  iterates it; O(V^2) memory, only for tiny graphs.
* :func:`pagerank_csr_reference` — a per-vertex Python-loop power iteration
  on a :class:`~repro.graph.csr.CSRGraph`; O(V + E) but interpreter-slow.

Both restrict the computation to an explicit *active vertex set* (the
paper computes each window's PageRank over V_i, the vertices present in
that window) and implement the same two dangling policies as the fast
kernels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.csr import CSRGraph
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import PagerankResult, WorkStats

__all__ = ["pagerank_dense_reference", "pagerank_csr_reference"]


def _active_mask(graph: CSRGraph, active: Optional[np.ndarray]) -> np.ndarray:
    if active is not None:
        mask = np.asarray(active, dtype=bool)
        if mask.shape != (graph.n_vertices,):
            raise ValidationError("active mask must have n_vertices entries")
        return mask
    mask = np.zeros(graph.n_vertices, dtype=bool)
    src, dst = graph.edges()
    mask[src] = True
    mask[dst] = True
    return mask


def pagerank_dense_reference(
    graph: CSRGraph,
    config: PagerankConfig = PagerankConfig(),
    active: Optional[np.ndarray] = None,
) -> PagerankResult:
    """Dense-matrix power iteration (test oracle for tiny graphs)."""
    n = graph.n_vertices
    mask = _active_mask(graph, active)
    n_active = int(mask.sum())
    if n_active == 0:
        return PagerankResult.inactive(n)

    # column-stochastic transition restricted to active vertices
    P = np.zeros((n, n), dtype=np.float64)
    src, dst = graph.edges()
    deg = graph.out_degrees().astype(np.float64)
    for u, v in zip(src, dst):
        P[v, u] = 1.0 / deg[u]

    x = np.where(mask, 1.0 / n_active, 0.0)
    alpha = config.alpha
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        y = (1.0 - alpha) * (P @ x)
        if config.dangling == "uniform":
            dangling_mass = x[mask & (deg == 0)].sum()
            y[mask] += (1.0 - alpha) * dangling_mass / n_active
        y[mask] += alpha / n_active
        y[~mask] = 0.0
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < config.tolerance:
            return PagerankResult(x, it, True, residual)
    if config.strict:
        raise ConvergenceError(
            f"dense reference did not converge in {config.max_iterations} "
            f"iterations (residual {residual:.3e})"
        )
    return PagerankResult(x, config.max_iterations, False, residual)


def pagerank_csr_reference(
    graph: CSRGraph,
    config: PagerankConfig = PagerankConfig(),
    active: Optional[np.ndarray] = None,
    x0: Optional[np.ndarray] = None,
) -> PagerankResult:
    """Per-vertex Python-loop push-style power iteration (test oracle)."""
    n = graph.n_vertices
    mask = _active_mask(graph, active)
    n_active = int(mask.sum())
    if n_active == 0:
        return PagerankResult.inactive(n)

    deg = graph.out_degrees()
    if x0 is not None:
        x = np.asarray(x0, dtype=np.float64).copy()
    else:
        x = np.where(mask, 1.0 / n_active, 0.0)

    alpha = config.alpha
    work = WorkStats()
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        y = np.zeros(n, dtype=np.float64)
        dangling_mass = 0.0
        for u in range(n):
            if not mask[u]:
                continue
            if deg[u] == 0:
                dangling_mass += x[u]
                continue
            share = x[u] / deg[u]
            for v in graph.neighbors(u):
                y[v] += share
        y *= 1.0 - alpha
        if config.dangling == "uniform":
            y[mask] += (1.0 - alpha) * dangling_mass / n_active
        y[mask] += alpha / n_active
        y[~mask] = 0.0

        residual = float(np.abs(y - x).sum())
        x = y
        work.iterations += 1
        work.edge_traversals += graph.n_edges
        work.active_edge_traversals += graph.n_edges
        work.vertex_ops += n_active
        if residual < config.tolerance:
            return PagerankResult(x, it, True, residual, work)
    if config.strict:
        raise ConvergenceError(
            f"CSR reference did not converge in {config.max_iterations} "
            f"iterations (residual {residual:.3e})"
        )
    return PagerankResult(x, config.max_iterations, False, residual, work)
