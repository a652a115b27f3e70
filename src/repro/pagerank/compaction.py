"""Per-window active-edge compaction (the literal Θ(|E_w|) iteration).

The masked kernels traverse **all stored nnz events** of their multi-window
graph every power iteration and zero out the inactive ones.  The paper's
complexity claim (Section 4.2, Figure 8) is asymptotic — partitioning
bounds nnz by the multi-window graph's |E_w| — but within one graph a
sparse window (small ``delta``, wide partition span: the Figure 9/10
regimes) still pays the full structure pass per iteration.

Compaction is the classic gather-scatter move from the GAP/STINGER CSR
lineage: pay one Θ(nnz) pass *per window* to pack the active deduplicated
in-edges into a dense ``(indptr_c, col_c, rows_c)`` triple, then iterate
over only the Θ(|E_w|) packed edges.  A boolean compress preserves order,
so the packed edges keep their **within-row order**; reducing them with
the sequential :func:`~repro.utils.segments.segment_sum_ordered` then
performs exactly the same additions in exactly the same order as the
masked path — the results are bitwise-identical (masked positions
contribute exact ``0.0``, and adding ``0.0`` to a non-negative
intermediate is exact in IEEE-754).  Note this identity genuinely needs
the *sequential* reduction: ``np.add.reduceat`` sums pairwise, so its
rounding depends on how many masked zeros pad each segment.

Selection between the two paths is the job of
:func:`repro.parallel.cost_model.choose_edge_path`: compaction amortizes
over the window's iterations, so it wins unless the window is almost fully
active or converges almost immediately.  ``PagerankConfig.edge_path``
pins the decision (``"masked"`` / ``"compacted"``) or delegates it
(``"auto"``, the default).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.utils.segments import lengths_to_indptr, segment_count

#: one-shot latch for the non-positive iteration_hint debug note (tests
#: reset it to observe the message again)
_NONPOSITIVE_HINT_NOTED = False

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.temporal_csr import WindowView
    from repro.pagerank.config import PagerankConfig
    from repro.pagerank.workspace import Workspace

__all__ = [
    "CompactedPull",
    "CompactedUnion",
    "compact_pull",
    "compact_pull_union",
    "compact_push",
    "pull_edges",
    "resolve_edge_path",
]


@dataclass(frozen=True)
class CompactedPull:
    """One window's active in-edges packed into a dense CSR pair.

    Attributes
    ----------
    indptr:
        ``(n_rows + 1,)`` int64 — per-destination ranges into ``col``.
    col:
        ``(n_edges,)`` int64 — source vertex per packed edge, preserving
        the stored within-row order (the bitwise-identity requirement).
    rows:
        ``(n_edges,)`` int64 — destination vertex per packed edge (the
        expansion of ``indptr``), consumed by the kernels' sequential
        :func:`~repro.utils.segments.segment_sum_ordered` reduction.
    weights:
        Optional ``(n_edges,)`` float64 — per-edge multiplicities for the
        weighted kernel; ``None`` for the unweighted kernels.

    When built against a :class:`~repro.pagerank.workspace.Workspace` the
    arrays are slices of pooled scratch: valid for the current window's
    solve, recycled by the chain's next compaction.
    """

    indptr: np.ndarray
    col: np.ndarray
    rows: np.ndarray
    weights: Optional[np.ndarray] = None

    @property
    def n_edges(self) -> int:
        return self.col.size


@dataclass(frozen=True)
class CompactedUnion:
    """The union of k windows' active in-edges, for the SpMM kernel.

    ``active[:, j]`` marks which packed edges belong to window j; an edge
    is packed iff it is active in *any* of the k windows, so the
    per-iteration structure pass shrinks from nnz to the union size while
    each column still masks exactly its own edges.
    """

    indptr: np.ndarray
    col: np.ndarray
    rows: np.ndarray
    active: np.ndarray  # (n_edges, k) bool

    @property
    def n_edges(self) -> int:
        return self.col.size


def _packed_indptr(
    counts: np.ndarray, workspace: Optional["Workspace"], key: str
) -> np.ndarray:
    if workspace is None:
        return lengths_to_indptr(counts)
    indptr = workspace.buffer(key, (counts.size + 1,), np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _pack(
    mask: np.ndarray,
    values: np.ndarray,
    m: int,
    workspace: Optional["Workspace"],
    key: str,
) -> np.ndarray:
    """``values[mask]`` (``m`` entries).  With a workspace it lands in an
    nnz-capacity buffer sliced to ``m``: the capacity is constant per
    multi-window graph, so the chain reallocates at most once."""
    if workspace is None:
        return values[mask]
    out = workspace.buffer(key, (values.size,), values.dtype)[:m]
    return np.compress(mask, values, out=out)


def compact_pull(
    view: "WindowView",
    workspace: Optional["Workspace"] = None,
    weights: Optional[np.ndarray] = None,
) -> CompactedPull:
    """Pack ``view``'s active deduped in-edges into ``(indptr_c, col_c,
    rows_c)``, plus their per-edge ``weights`` (the weighted kernel's
    multiplicities) when given.

    One Θ(nnz) pass (a prefix sum over the already-computed per-row active
    degrees plus boolean compresses); every subsequent power iteration
    then costs Θ(|E_w|) instead of Θ(nnz).
    """
    in_csr = view.adjacency.in_csr
    dedup = view.in_dedup
    m = view.n_active_edges
    return CompactedPull(
        indptr=_packed_indptr(view.in_degrees, workspace, "compact.indptr"),
        col=_pack(dedup, in_csr.col, m, workspace, "compact.col"),
        rows=_pack(dedup, in_csr.row_ids(), m, workspace, "compact.rows"),
        weights=None if weights is None else _pack(
            dedup, weights, m, workspace, "compact.weights"
        ),
    )


def compact_pull_union(
    views: Sequence["WindowView"],
    workspace: Optional["Workspace"] = None,
) -> CompactedUnion:
    """Pack the union of k same-graph windows' active in-edges.

    The SpMM kernel's batched iteration gathers and reduces over the
    packed union once per iteration; ``active`` re-expresses each window's
    dedup mask in union positions so per-column masking is preserved
    (and with it, bitwise identity to the masked batch).
    """
    adjacency = views[0].adjacency
    in_csr = adjacency.in_csr
    nnz = in_csr.nnz
    k = len(views)
    if workspace is None:
        union = np.zeros(nnz, dtype=np.bool_)
    else:
        union = workspace.zeros("compact.union", (nnz,), np.bool_)
    for v in views:
        union |= v.in_dedup

    cast = (
        workspace.buffer("tcsr.cast", (nnz,), np.int64)
        if workspace is not None
        else None
    )
    counts = segment_count(union, in_csr.indptr, cast_buffer=cast)
    indptr_u = _packed_indptr(counts, workspace, "compact.indptr")
    m = int(indptr_u[-1])
    if workspace is None:
        active = np.empty((m, k), dtype=np.bool_)
    else:
        active = workspace.buffer("compact.active", (nnz, k), np.bool_)[:m]
    positions = np.flatnonzero(union)
    for j, v in enumerate(views):
        active[:, j] = v.in_dedup[positions]
    return CompactedUnion(
        indptr=indptr_u,
        col=_pack(union, in_csr.col, m, workspace, "compact.col"),
        rows=_pack(union, in_csr.row_ids(), m, workspace, "compact.rows"),
        active=active,
    )


def compact_push(
    view: "WindowView", workspace: Optional["Workspace"] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack the window's active deduped **out**-edges as ``(src, dst)``.

    The propagation-blocking kernel's edge list — it bins by destination,
    so it wants the push orientation.  Returned arrays are workspace
    slices when a workspace is supplied (the PB kernel immediately
    reorders them into owned, bin-grouped copies).
    """
    out_csr = view.adjacency.out_csr
    ts, te = view.window.t_start, view.window.t_end
    dedup = out_csr.dedup_mask(ts, te, workspace=workspace)
    m = int(np.count_nonzero(dedup))
    return (
        _pack(dedup, out_csr.row_ids(), m, workspace, "compact.push_src"),
        _pack(dedup, out_csr.col, m, workspace, "compact.push_dst"),
    )


def pull_edges(
    views: Sequence["WindowView"],
    config: "PagerankConfig",
    workspace: "Workspace",
    iteration_hint: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The ``(col, rows, masks)`` edge list a pull over k same-graph
    windows iterates.

    Compacted, one window iterates its own packed edges (no masks) and k
    windows their packed union with ``masks[:, j]`` marking window j's
    edges; masked, the whole structure with each window's dedup mask as
    a column.  Every form reduces to the same sums bitwise.
    """
    if not views:
        raise ValidationError("need at least one window view")
    adjacency = views[0].adjacency
    if any(v.adjacency is not adjacency for v in views[1:]):
        raise ValidationError(
            "batched windows must all come from the same multi-window graph"
        )
    in_csr = adjacency.in_csr
    nnz = in_csr.nnz
    k = len(views)
    # the union can't exceed the sum of the windows' active edges (nor
    # nnz), so that bound stands in for its size in the auto decision —
    # computing the real union only to discard it would cost the very
    # Θ(nnz·k) pass the masked path avoids paying twice
    est_union = min(nnz, sum(v.n_active_edges for v in views))
    path = resolve_edge_path(
        config, nnz, est_union, adjacency.n_vertices, iteration_hint
    )
    if path == "compacted":
        if k == 1:
            packed = views[0].compact_pull(workspace=workspace)
            return packed.col, packed.rows, None
        union = compact_pull_union(views, workspace=workspace)
        return union.col, union.rows, union.active
    if k == 1:
        masks = views[0].in_dedup[:, None]
    else:
        masks = np.stack(
            [v.in_dedup for v in views], axis=1,
            out=workspace.buffer("pr.dedup", (nnz, k), np.bool_),
        )
    return in_csr.col, in_csr.row_ids(), masks


def resolve_edge_path(
    config: "PagerankConfig",
    nnz: int,
    n_active_edges: int,
    n_vertices: int,
    iteration_hint: Optional[int] = None,
) -> str:
    """Turn ``config.edge_path`` into a concrete ``"masked"``/``"compacted"``.

    ``"auto"`` asks the parallel cost model: compaction pays one Θ(nnz)
    pack to save ``(nnz - |E_w|)`` traversed events per iteration, so the
    decision needs an iteration estimate — ``iteration_hint`` (typically
    the previous window of the chain, whose spectrum is nearly identical)
    when available, otherwise a conservative default capped by the
    config's iteration budget.

    A non-positive hint — a previous window that converged in zero
    iterations (empty window) or a driver that deliberately passes its
    raw counter — also falls back to the default, but *audibly*: a single
    debug-level note per process, because a chain that silently treats
    "converged instantly" as "no information" is hard to diagnose when
    the crossover lands on the wrong side.
    """
    path = config.edge_path
    if path != "auto":
        return path
    # lazy import: repro.parallel pulls in the executor stack; the kernels
    # must stay importable without it at module-import time
    from repro.parallel.cost_model import (
        DEFAULT_EXPECTED_ITERATIONS,
        choose_edge_path,
    )

    if iteration_hint is not None and iteration_hint > 0:
        expected = min(iteration_hint, config.max_iterations)
    else:
        if iteration_hint is not None:
            global _NONPOSITIVE_HINT_NOTED
            if not _NONPOSITIVE_HINT_NOTED:
                _NONPOSITIVE_HINT_NOTED = True
                logging.getLogger(__name__).debug(
                    "edge_path='auto' received iteration_hint=%d; falling "
                    "back to DEFAULT_EXPECTED_ITERATIONS=%d (noted once "
                    "per process)",
                    iteration_hint, DEFAULT_EXPECTED_ITERATIONS,
                )
        expected = min(config.max_iterations, DEFAULT_EXPECTED_ITERATIONS)
    return choose_edge_path(nnz, n_active_edges, n_vertices, expected)


def validate_edge_path(path: str) -> str:
    """Shared validation for config/CLI surfaces."""
    if path not in ("auto", "masked", "compacted"):
        raise ValidationError(
            f"edge_path must be 'auto', 'masked' or 'compacted', "
            f"got {path!r}"
        )
    return path
