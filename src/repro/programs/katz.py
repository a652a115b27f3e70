"""Temporal Katz centrality as a first-class vertex program.

Katz solves the affine fixed point  x = a · A^T x + b  — the same
gather-over-in-edges shape as the PageRank pull without the degree
normalization — so its temporal kernel reuses the SpMV propagation
*directly*: :func:`repro.pagerank.compaction.resolve_edge_path` picks
masked vs compacted edge traversal, and
:func:`repro.utils.segments.gather_reduce` is the same gather→reduce
step :mod:`repro.pagerank.spmv` runs.  The legacy
:func:`repro.kernels.katz.katz_window` (plain ``segment_sum`` over the
masked structure) remains as the standalone kernel; this module is the
engine-grade implementation.

Batched windows ride :func:`repro.kernels.katz_spmm.katz_windows_spmm`;
the materialized surface runs the identical affine iteration on a simple
CSR snapshot, with the same max-degree attenuation clamp so all three
execution models converge to the same fixed point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.kernels.katz import KatzConfig, _effective_attenuation, katz_partial_init
from repro.kernels.katz_spmm import katz_windows_spmm
from repro.pagerank.compaction import resolve_edge_path
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import BatchPagerankResult, PagerankResult, WorkStats
from repro.programs.base import VertexProgram
from repro.utils.segments import gather_reduce, segment_sum

__all__ = ["KatzProgram", "katz_window_backend"]


def _normalized(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    return v / total if total > 0 else v


def katz_window_backend(
    view: WindowView,
    config: KatzConfig = KatzConfig(),
    routing: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace=None,
    iteration_hint: Optional[int] = None,
) -> PagerankResult:
    """Katz centrality of one window through the SpMV propagation step.

    ``routing`` contributes only the propagation policy (``edge_path``);
    the Katz parameters live in ``config``.  Output is L1-normalized over
    the active vertices, like :func:`repro.kernels.katz.katz_window`.
    """
    n = view.adjacency.n_vertices
    n_active = view.n_active_vertices
    if n_active == 0:
        return PagerankResult.inactive(n)

    in_csr = view.adjacency.in_csr
    nnz = in_csr.nnz
    active = view.active_vertices_mask
    a = _effective_attenuation(view, config)
    b = config.base / n_active

    path = resolve_edge_path(
        routing, nnz, view.n_active_edges, n, iteration_hint
    )
    if path == "compacted":
        packed = view.compact_pull(workspace=workspace)
        col, rows, mask = packed.col, packed.rows, None
    else:
        col, rows, mask = in_csr.col, in_csr.row_ids(), view.in_dedup

    work = WorkStats()
    if x0 is None:
        x = np.where(active, b, 0.0)
    else:
        x = np.asarray(x0, dtype=np.float64)
        if x.shape != (n,):
            raise ValidationError(f"x0 must have shape ({n},), got {x.shape}")
        x = x.copy()

    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        # raw affine iteration x <- a A^T x + b (the true fixed point);
        # the residual compares normalized iterates, scale-invariantly
        t_prop = time.perf_counter()
        y = gather_reduce(x, col, rows, n, mask=mask)
        work.propagate_seconds += time.perf_counter() - t_prop
        y = y * a
        y[active] += b
        y[~active] = 0.0

        residual = float(np.abs(_normalized(y) - _normalized(x)).sum())
        x = y
        work.iterations += 1
        work.edge_traversals += col.size
        work.active_edge_traversals += view.n_active_edges
        work.vertex_ops += n_active
        if residual < config.tolerance:
            return PagerankResult(_normalized(x), it, True, residual, work)

    if config.strict:
        raise ConvergenceError(
            f"Katz did not converge in {config.max_iterations} iterations"
        )
    return PagerankResult(
        _normalized(x), config.max_iterations, False, residual, work
    )


def _katz_graph(
    graph: CSRGraph,
    config: KatzConfig,
    active: np.ndarray,
    prev_values: Optional[np.ndarray] = None,
    prev_active: Optional[np.ndarray] = None,
) -> PagerankResult:
    """The materialized-surface Katz solve (offline / streaming models).

    Same attenuation clamp and normalization as the temporal kernels, so
    every execution model converges to one fixed point per window.
    """
    n = graph.n_vertices
    mask = np.asarray(active, dtype=bool)
    n_active = int(mask.sum())
    if n_active == 0:
        return PagerankResult.inactive(n)

    in_graph = graph.transpose()
    in_indptr, in_col = in_graph.indptr, in_graph.col
    a = config.attenuation
    if config.auto_clamp:
        out_deg = graph.out_degrees()
        in_deg = in_graph.out_degrees()
        dmax = int(max(in_deg.max(initial=0), out_deg.max(initial=0)))
        if dmax > 0:
            a = min(a, 0.9 / dmax)
    b = config.base / n_active

    if prev_values is not None:
        prev_values = np.asarray(prev_values, dtype=np.float64)
        shared = mask & (
            np.asarray(prev_active, dtype=bool)
            if prev_active is not None
            else prev_values > 0
        )
        n_shared = int(shared.sum())
        shared_mass = float(prev_values[shared].sum())
        x = np.zeros(n, dtype=np.float64)
        if n_shared and shared_mass > 0:
            x[shared] = prev_values[shared] * (
                (n_shared / n_active) / shared_mass
            )
            x[mask & ~shared] = 1.0 / n_active
        else:
            x[mask] = 1.0 / n_active
    else:
        x = np.where(mask, b, 0.0)

    work = WorkStats()
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        y = a * segment_sum(x[in_col], in_indptr)
        y[mask] += b
        y[~mask] = 0.0
        residual = float(np.abs(_normalized(y) - _normalized(x)).sum())
        x = y
        work.iterations += 1
        work.edge_traversals += graph.n_edges
        work.active_edge_traversals += graph.n_edges
        work.vertex_ops += n_active
        if residual < config.tolerance:
            return PagerankResult(_normalized(x), it, True, residual, work)

    if config.strict:
        raise ConvergenceError(
            f"Katz did not converge in {config.max_iterations} iterations"
        )
    return PagerankResult(
        _normalized(x), config.max_iterations, False, residual, work
    )


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
        return katz_window_backend(
            view, self.config, self.routing, x0=x0,
            workspace=workspace, iteration_hint=iteration_hint,
        )

    def solve_batch(
        self,
        views: Sequence[WindowView],
        x0: np.ndarray,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> BatchPagerankResult:
        # the batched kernel manages its own scratch; workspace and the
        # edge-path hint apply only to the SpMV-shaped path
        return katz_windows_spmm(views, self.config, x0=x0)

    # -- materialized surface ------------------------------------------
    def solve_graph(
        self,
        graph: CSRGraph,
        active: np.ndarray,
        *,
        prev_values: Optional[np.ndarray] = None,
        prev_active: Optional[np.ndarray] = None,
    ) -> PagerankResult:
        return _katz_graph(
            graph, self.config, active,
            prev_values=prev_values, prev_active=prev_active,
        )
