"""Katz centrality per window, with postmortem warm starts.

Katz centrality solves  x = a * A^T x + b  (attenuation ``a`` below the
inverse spectral radius, uniform base ``b``), i.e. the same
gather-over-in-edges iteration as PageRank without the degree
normalization.  Nathan & Bader's streaming Katz (cited in the paper's
Section 3.2) incrementally updates it; here we provide the *postmortem*
version: the masked temporal-CSR kernel plus a partial-initialization
warm start across consecutive windows, mirroring the paper's PageRank
treatment (Section 4.2) on a second analysis kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.temporal_csr import WindowView
from repro.pagerank.result import PagerankResult, WorkStats
from repro.utils.segments import segment_sum

__all__ = ["KatzConfig", "katz_window", "katz_partial_init"]


@dataclass(frozen=True)
class KatzConfig:
    """Katz solver parameters.

    ``attenuation`` must stay below 1/λ_max for convergence; the classic
    safe default for sparse window graphs is a small constant, and the
    kernel additionally caps the contribution per iteration via the
    max-degree bound when ``auto_clamp`` is set.
    """

    attenuation: float = 0.05
    base: float = 1.0
    tolerance: float = 1e-9
    max_iterations: int = 200
    auto_clamp: bool = True
    strict: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.attenuation < 1.0):
            raise ValidationError("attenuation must be in (0, 1)")
        if self.base <= 0:
            raise ValidationError("base must be > 0")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be > 0")
        if self.max_iterations <= 0:
            raise ValidationError("max_iterations must be > 0")


def _effective_attenuation(view: WindowView, config: KatzConfig) -> float:
    """Clamp attenuation below 1/max_in_degree (a cheap spectral-radius
    upper bound) so the fixed point exists for every window."""
    a = config.attenuation
    if config.auto_clamp:
        dmax = int(
            max(view.in_degrees.max(initial=0), view.out_degrees.max(initial=0))
        )
        if dmax > 0:
            a = min(a, 0.9 / dmax)
    return a


def katz_window(
    view: WindowView,
    config: KatzConfig = KatzConfig(),
    x0: Optional[np.ndarray] = None,
) -> PagerankResult:
    """Katz centrality of one window, normalized to unit L1 mass over the
    active vertices (so warm starts transfer across windows the same way
    eq. 4 does for PageRank)."""
    adjacency = view.adjacency
    n = adjacency.n_vertices
    n_active = view.n_active_vertices
    if n_active == 0:
        return PagerankResult.inactive(n)

    in_csr = adjacency.in_csr
    dedup = view.in_dedup
    col = in_csr.col
    active = view.active_vertices_mask
    a = _effective_attenuation(view, config)
    b = config.base / n_active

    if x0 is None:
        x = np.where(active, b, 0.0)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        if x.shape != (n,):
            raise ValidationError(f"x0 must have shape ({n},)")

    def normalized(v: np.ndarray) -> np.ndarray:
        total = v.sum()
        return v / total if total > 0 else v

    work = WorkStats()
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        # raw affine iteration x <- a A^T x + b; the true Katz fixed point
        # (normalizing inside the loop would change it)
        contrib = np.where(dedup, x[col], 0.0)
        y = a * segment_sum(contrib, in_csr.indptr)
        y[active] += b
        y[~active] = 0.0

        # scale-invariant residual: Katz is used for ranking, so compare
        # the normalized iterates
        residual = float(np.abs(normalized(y) - normalized(x)).sum())
        x = y
        work.iterations += 1
        work.edge_traversals += in_csr.nnz
        work.active_edge_traversals += view.n_active_edges
        work.vertex_ops += n_active
        if residual < config.tolerance:
            return PagerankResult(normalized(x), it, True, residual, work)

    if config.strict:
        raise ConvergenceError(
            f"Katz did not converge in {config.max_iterations} iterations"
        )
    return PagerankResult(
        normalized(x), config.max_iterations, False, residual, work
    )


def katz_partial_init(
    view: WindowView,
    prev_view: WindowView,
    prev_values: np.ndarray,
) -> np.ndarray:
    """Eq. 4-style warm start for Katz: previous scores on shared
    vertices, uniform mass on new vertices, renormalized to 1."""
    prev_values = np.asarray(prev_values, dtype=np.float64)
    n = view.adjacency.n_vertices
    if prev_values.shape != (n,):
        raise ValidationError("prev_values must be a per-vertex vector")

    cur = view.active_vertices_mask
    prev = prev_view.active_vertices_mask
    shared = cur & prev
    n_cur = view.n_active_vertices
    if n_cur == 0:
        return np.zeros(n, dtype=np.float64)
    shared_mass = float(prev_values[shared].sum())
    x = np.zeros(n, dtype=np.float64)
    if shared.any() and shared_mass > 0:
        n_shared = int(shared.sum())
        x[shared] = prev_values[shared] * (n_shared / n_cur) / shared_mass
        x[cur & ~prev] = 1.0 / n_cur
    else:
        x[cur] = 1.0 / n_cur
    return x
