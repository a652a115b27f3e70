"""An independent PageRank oracle for the benchmark's output checks.

It shares no code with the program's kernels: each window's graph is
rebuilt from the raw generated event chunks (events with
``t_start <= t <= t_end``, duplicate ``(src, dst)`` pairs collapsed, the
endpoints of those edges active), and PageRank is solved by plain power
iteration on a ``scipy.sparse`` transition matrix, to a residual far
below the run's tolerance.  Teleport ``alpha`` goes uniformly to the
active vertices and so does the rank of active vertices without
out-edges (the ``dangling="uniform"`` policy).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["EventLog", "oracle_pagerank", "error_bound"]


class EventLog:
    """The generated input events, sorted by time once for slicing."""

    def __init__(self, chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                 n_vertices: int) -> None:
        src = np.concatenate([c[0] for c in chunks])
        dst = np.concatenate([c[1] for c in chunks])
        time = np.concatenate([c[2] for c in chunks])
        order = np.argsort(time, kind="stable")
        self.src, self.dst, self.time = src[order], dst[order], time[order]
        self.n_vertices = int(n_vertices)

    def window_edges(self, t_start: int, t_end: int) -> Tuple[np.ndarray,
                                                              np.ndarray]:
        lo = np.searchsorted(self.time, t_start, side="left")
        hi = np.searchsorted(self.time, t_end, side="right")
        keys = np.unique(
            self.src[lo:hi].astype(np.int64) * self.n_vertices
            + self.dst[lo:hi]
        )
        return keys // self.n_vertices, keys % self.n_vertices


def oracle_pagerank(src: np.ndarray, dst: np.ndarray, n: int,
                    alpha: float, tol: float = 1e-14,
                    max_iter: int = 5000) -> np.ndarray:
    """Power iteration over the active vertices; zeros elsewhere."""
    x = np.zeros(n, dtype=np.float64)
    if src.size == 0:
        return x
    active = np.zeros(n, dtype=bool)
    active[src] = True
    active[dst] = True
    n_active = int(active.sum())
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    # column-stochastic: P[v, u] = 1 / outdeg(u) for each edge u -> v
    P = sp.csr_matrix(
        (1.0 / out_deg[src], (dst, src)), shape=(n, n), dtype=np.float64
    )
    dangling = active & (out_deg == 0)
    x[active] = 1.0 / n_active
    for _ in range(max_iter):
        y = (1.0 - alpha) * (P @ x)
        leak = (1.0 - alpha) * x[dangling].sum() + alpha
        y[active] += leak / n_active
        residual = np.abs(y - x).sum()
        x = y
        if residual < tol:
            return x
    raise RuntimeError(f"oracle did not converge (residual {residual:.3e})")


def error_bound(tolerance: float, alpha: float) -> float:
    """L1 distance to the fixed point allowed by a converged solve.

    Power iteration contracts by ``d = 1 - alpha`` per step, so a last
    step smaller than ``tolerance`` leaves at most ``tolerance * d /
    (1 - d)`` to go; the bound doubles that for round-off headroom.
    """
    d = 1.0 - alpha
    return 2.0 * tolerance * d / (1.0 - d)
