"""The temporal vertex-program contract.

The paper's machinery below the driver layer — multi-window partitioning
(Section 4.1), partial-initialization chains (Section 4.2), pooled
workspaces, executors and edge compaction — is PageRank-agnostic in
principle: any per-window analytic that initializes a per-vertex state,
runs a (possibly iterative) propagation step over a
:class:`~repro.graph.temporal_csr.WindowView` and tests convergence can
ride the same stack.  :class:`VertexProgram` captures exactly that shape.

A program exposes **two solve surfaces**, one per graph representation:

* the *temporal* surface (``init_window`` / ``warm_start`` /
  ``solve_window`` / optional ``solve_batch``) operates on window views of
  a multi-window temporal CSR — the postmortem engine
  (:mod:`repro.programs.engine`) drives it through warm-start chains,
  pooled workspaces and the SpMM region schedule;
* the *materialized* surface (``solve_graph``) operates on a per-window
  simple :class:`~repro.graph.csr.CSRGraph` — the offline and streaming
  drivers use it, which is what makes cross-model parity a property every
  program inherits instead of a PageRank-only test.

Programs are small frozen dataclasses holding only configuration, so every
executor (thread / process / shared) can pickle them to workers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.pagerank.result import BatchPagerankResult, PagerankResult

__all__ = ["VertexProgram"]


class VertexProgram:
    """Base class for per-window vertex analytics.

    Attributes
    ----------
    name:
        The program's registry name (recorded in run metadata and rank
        stores so the serving layer knows what it is serving).
    iterative:
        Whether windows chain: iterative programs are warm-started from
        the previous window's solution (``warm_start``); non-iterative
        fixpoints (k-core) solve each window independently and never
        receive an ``x0``.
    supports_batch:
        Whether ``solve_batch`` exists, i.e. the program has an
        SpMM-shaped batched kernel the region schedule can feed.
    vertex_values:
        Whether window solutions are per-vertex float vectors in the
        view's local space (the engine scatters them to the global space
        and can stream them into rank stores).  ``False`` for adapter
        programs wrapping callable kernels with arbitrary outputs, which
        ride in ``WindowResult.value`` instead.
    """

    name: str = "program"
    iterative: bool = True
    supports_batch: bool = False
    vertex_values: bool = True

    # -- temporal surface (postmortem engine) --------------------------
    def init_window(self, view: WindowView) -> Optional[np.ndarray]:
        """Cold-start state for one window (``None`` for non-iterative
        programs, which take no initial vector)."""
        raise NotImplementedError

    def warm_start(
        self,
        view: WindowView,
        prev_view: WindowView,
        prev_values: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Warm-start ``view`` from its predecessor's solution (the
        generalization of eq. 4 partial initialization).  Defaults to a
        cold start for programs without a useful transfer."""
        return self.init_window(view)

    def solve_window(
        self,
        view: WindowView,
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> PagerankResult:
        """Solve one window in the view's local vertex space.

        ``workspace`` is the chain's pooled
        :class:`~repro.pagerank.workspace.Workspace`; programs that use it
        must still return freshly owned values.  ``iteration_hint`` is the
        chain's previous iteration count (the ``edge_path="auto"``
        predictor); non-adaptive programs ignore it.
        """
        raise NotImplementedError

    def solve_batch(
        self,
        views: Sequence[WindowView],
        x0: np.ndarray,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> BatchPagerankResult:
        """Solve a region-schedule batch (column ``j`` of ``x0`` seeds
        ``views[j]``).  Only called when ``supports_batch``."""
        raise NotImplementedError

    # -- materialized surface (offline / streaming drivers) ------------
    def solve_graph(
        self,
        graph: CSRGraph,
        active: np.ndarray,
        *,
        prev_values: Optional[np.ndarray] = None,
        prev_active: Optional[np.ndarray] = None,
    ) -> PagerankResult:
        """Solve one window materialized as a simple graph (global vertex
        space).  ``prev_values``/``prev_active`` warm-start iterative
        programs across streamed windows; offline runs pass neither."""
        raise NotImplementedError
