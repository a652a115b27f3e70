"""Result containers for PageRank runs.

Besides the solution vector, every kernel reports *work statistics* — the
quantities (edge traversals, vertex operations, iterations) the parallel
cost model is calibrated against.  This is how the simulated machine charges
exactly the work the real kernel performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

__all__ = ["WorkStats", "PagerankResult", "BatchPagerankResult"]


@dataclass
class WorkStats:
    """Machine-independent work counters for one solver run.

    Attributes
    ----------
    iterations:
        Power iterations executed.
    edge_traversals:
        Total stored events touched (iterations × structure nnz for the
        masked kernels; note this is the *structure* size, which is why
        multi-window partitioning matters).
    active_edge_traversals:
        Iterations × active (deduplicated) edges — the useful work.
    vertex_ops:
        Iterations × vertices updated.
    propagate_seconds:
        Wall-clock spent inside the per-iteration gather→reduce
        propagation calls.  Unlike the counters above this is
        machine-*dependent*.
    """

    iterations: int = 0
    edge_traversals: int = 0
    active_edge_traversals: int = 0
    vertex_ops: int = 0
    propagate_seconds: float = 0.0

    def merge(self, other: "WorkStats") -> None:
        self.iterations += other.iterations
        self.edge_traversals += other.edge_traversals
        self.active_edge_traversals += other.active_edge_traversals
        self.vertex_ops += other.vertex_ops
        self.propagate_seconds += other.propagate_seconds

    @classmethod
    def accumulate(cls, stats_list) -> "WorkStats":
        total = cls()
        for s in stats_list:
            total.merge(s)
        return total


@dataclass
class PagerankResult:
    """Solution of one window's PageRank.

    ``values`` lives in whatever vertex space the kernel ran in (local
    multi-window space for postmortem runs; drivers scatter to the global
    space when requested).
    """

    values: np.ndarray
    iterations: int
    converged: bool
    residual: float
    work: WorkStats = field(default_factory=WorkStats)

    @classmethod
    def inactive(cls, n_vertices: int) -> "PagerankResult":
        """The trivially converged all-zero result of an empty window."""
        return cls(
            values=np.zeros(n_vertices, dtype=np.float64),
            iterations=0, converged=True, residual=0.0,
        )

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())


@dataclass
class BatchPagerankResult:
    """Solution of an SpMM batch: k windows solved simultaneously.

    ``values`` is ``(n_vertices, k)``; column j corresponds to
    ``window_indices[j]``.
    """

    values: np.ndarray
    window_indices: List[int]
    iterations_per_window: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    work: WorkStats = field(default_factory=WorkStats)

    def single(self) -> PagerankResult:
        """The result of a one-column batch, work counters included."""
        return PagerankResult(
            values=self.values[:, 0],
            iterations=int(self.iterations_per_window[0]),
            converged=bool(self.converged[0]),
            residual=float(self.residuals[0]),
            work=self.work,
        )

    def column(self, window_index: int) -> PagerankResult:
        """Extract one window's result from the batch."""
        j = self.window_indices.index(window_index)
        return PagerankResult(
            values=self.values[:, j].copy(),
            iterations=int(self.iterations_per_window[j]),
            converged=bool(self.converged[j]),
            residual=float(self.residuals[j]),
        )
