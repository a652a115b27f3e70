"""PageRank re-homed as the reference :class:`VertexProgram`.

Every hook delegates to the exact function the pre-engine drivers called —
:func:`~repro.pagerank.init.full_initialization` /
:func:`~repro.pagerank.init.partial_initialization` for state,
:func:`~repro.pagerank.spmv.pagerank_window` (or the weighted variant) and
:func:`~repro.pagerank.spmm.pagerank_windows_spmm` for the temporal
kernels, :func:`~repro.pagerank.incremental.incremental_pagerank` for the
materialized path — so engine output is bitwise-identical to the historic
driver by construction, not by tolerance.  The parity suite asserts this
across kernels × edge paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.pagerank.config import PagerankConfig
from repro.pagerank.incremental import incremental_pagerank
from repro.pagerank.init import full_initialization, partial_initialization
from repro.pagerank.result import BatchPagerankResult, PagerankResult
from repro.pagerank.spmm import pagerank_windows_spmm
from repro.pagerank.spmv import pagerank_window
from repro.pagerank.weighted import pagerank_window_weighted
from repro.programs.base import VertexProgram

__all__ = ["PagerankProgram"]


@dataclass(frozen=True)
class PagerankProgram(VertexProgram):
    """The paper's PageRank (eq. 1) as a vertex program.

    ``weighted`` selects the event-multiplicity-weighted SpMV kernel,
    which has no batched form — the engine falls back to the sequential
    schedule exactly as :class:`PostmortemOptions` validation historically
    required.
    """

    config: PagerankConfig = field(default_factory=PagerankConfig)
    weighted: bool = False

    name = "pagerank"
    iterative = True

    @property
    def supports_batch(self) -> bool:  # type: ignore[override]
        return not self.weighted

    # -- temporal surface ----------------------------------------------
    def init_window(self, view: WindowView) -> np.ndarray:
        return full_initialization(view)

    def warm_start(
        self,
        view: WindowView,
        prev_view: WindowView,
        prev_values: np.ndarray,
    ) -> np.ndarray:
        return partial_initialization(view, prev_view, prev_values)

    def solve_window(
        self,
        view: WindowView,
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> PagerankResult:
        solver = pagerank_window_weighted if self.weighted else pagerank_window
        return solver(
            view, self.config, x0=x0, workspace=workspace,
            iteration_hint=iteration_hint,
        )

    def solve_batch(
        self,
        views: Sequence[WindowView],
        x0: np.ndarray,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> BatchPagerankResult:
        return pagerank_windows_spmm(
            views, self.config, x0=x0, workspace=workspace,
            iteration_hint=iteration_hint,
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
        return incremental_pagerank(
            graph,
            self.config,
            active=active,
            prev_values=prev_values,
            prev_active=prev_active,
        )
