"""Temporal Katz centrality as a first-class vertex program.

Katz solves the affine fixed point  x = a · A^T x + b  — the same
gather-over-in-edges shape as the PageRank pull without the degree
normalization — so it runs on PageRank's loop,
:func:`repro.pagerank.spmv.power_iteration`, with its own vertex step:
scale the propagated sums by the attenuation, add the base on active
vertices, and compare L1-normalized iterates.  All three surfaces share
that one solve:

* ``solve_window`` is the k=1 case and ``solve_batch`` the k-column one,
  over the same edge path and union compaction as SpMV and SpMM
  (:func:`repro.pagerank.compaction.pull_edges`);
* ``solve_graph`` (the offline and streaming models) iterates the
  snapshot's edges in CSR order, which visits each destination's sources
  in the transposed CSR's order, and warm-starts through the same
  mask-based :func:`repro.kernels.katz.katz_warm_start` as
  :func:`repro.kernels.katz.katz_partial_init`.

Every surface applies the same max-degree attenuation clamp, so all three
execution models converge to the same fixed point.  Output is normalized
to unit L1 mass over the active vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.kernels.katz import (
    KatzConfig,
    katz_attenuation,
    katz_partial_init,
    katz_warm_start,
)
from repro.pagerank.compaction import pull_edges
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import BatchPagerankResult, PagerankResult
from repro.pagerank.spmv import power_iteration, pull_step, start_vector
from repro.pagerank.workspace import Workspace
from repro.programs.base import VertexProgram

__all__ = ["KatzProgram"]


def _normalized(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    return v / total if total > 0 else v


def _katz(
    config: KatzConfig,
    starts: Sequence[np.ndarray],
    active: Sequence[np.ndarray],
    attenuation: Sequence[float],
    workspace: Workspace,
    propagate,
    windows: Sequence[Optional[int]],
    active_edges: Sequence[int],
    edge_traversals: int,
    masks: Optional[np.ndarray] = None,
) -> BatchPagerankResult:
    """Katz's vertex step on :func:`power_iteration`, one column per
    start vector; the returned columns are L1-normalized."""
    n_active = [int(m.sum()) for m in active]
    base = [config.base / c if c else 0.0 for c in n_active]
    inactive = [~m for m in active]

    def update(j: int, x: np.ndarray, y: np.ndarray) -> float:
        # raw affine iteration x <- a A^T x + b (the true fixed point);
        # the residual compares normalized iterates, scale-invariantly
        y *= attenuation[j]
        y[active[j]] += base[j]
        y[inactive[j]] = 0.0
        return float(np.abs(_normalized(y) - _normalized(x)).sum())

    batch = power_iteration(
        starts, config, workspace, propagate, update, windows, n_active,
        active_edges, edge_traversals, masks=masks,
    )
    for j in range(len(starts)):
        batch.values[:, j] = _normalized(batch.values[:, j])
    return batch


@dataclass(frozen=True)
class KatzProgram(VertexProgram):
    """Temporal Katz centrality on the PageRank-grade stack."""

    config: KatzConfig = field(default_factory=KatzConfig)
    #: propagation policy (edge path) — the Katz parameters themselves
    #: live in ``config``
    routing: PagerankConfig = field(default_factory=PagerankConfig)

    name = "katz"
    iterative = True
    supports_batch = True

    # -- temporal surface ----------------------------------------------
    def init_window(self, view: WindowView) -> np.ndarray:
        n = view.adjacency.n_vertices
        n_active = view.n_active_vertices
        if n_active == 0:
            return np.zeros(n, dtype=np.float64)
        b = self.config.base / n_active
        return np.where(view.active_vertices_mask, b, 0.0)

    def warm_start(
        self,
        view: WindowView,
        prev_view: WindowView,
        prev_values: np.ndarray,
    ) -> np.ndarray:
        return katz_partial_init(view, prev_view, prev_values)

    def solve_window(
        self,
        view: WindowView,
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> PagerankResult:
        n = view.adjacency.n_vertices
        if x0 is not None:
            x0 = start_vector(x0, (n,))[:, None]
        return self.solve_batch(
            [view], x0, workspace=workspace, iteration_hint=iteration_hint
        ).single()

    def solve_batch(
        self,
        views: Sequence[WindowView],
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> BatchPagerankResult:
        ws = workspace if workspace is not None else Workspace()
        col, rows, masks = pull_edges(views, self.routing, ws, iteration_hint)
        adjacency = views[0].adjacency
        n = adjacency.n_vertices
        if x0 is None:
            starts = [self.init_window(v) for v in views]
        else:
            starts = list(start_vector(x0, (n, len(views))).T)
        return _katz(
            self.config, starts,
            [v.active_vertices_mask for v in views],
            [katz_attenuation(self.config, v.in_degrees, v.out_degrees)
             for v in views],
            ws, pull_step(col, rows, n, masks, ws, adjacency.in_csr.nnz),
            [v.window.index for v in views],
            [v.n_active_edges for v in views], col.size, masks,
        )

    # -- materialized surface ------------------------------------------
    def solve_graph(
        self,
        graph: CSRGraph,
        active: np.ndarray,
        *,
        prev_values: Optional[np.ndarray] = None,
        prev_active: Optional[np.ndarray] = None,
    ) -> PagerankResult:
        n = graph.n_vertices
        mask = np.asarray(active, dtype=bool)
        n_active = int(mask.sum())
        if n_active == 0:
            return PagerankResult.inactive(n)
        if prev_values is None:
            start = np.where(mask, self.config.base / n_active, 0.0)
        else:
            prev_values = np.asarray(prev_values, dtype=np.float64)
            prev = (
                np.asarray(prev_active, dtype=bool)
                if prev_active is not None
                else prev_values > 0
            )
            start = katz_warm_start(mask, prev, prev_values)
        src, dst = graph.edges()
        a = katz_attenuation(
            self.config, np.bincount(dst, minlength=n), graph.out_degrees()
        )
        ws = Workspace()
        return _katz(
            self.config, [start], [mask], [a], ws,
            pull_step(src, dst, n, None, ws, src.size),
            [None], [graph.n_edges], graph.n_edges,
        ).single()
