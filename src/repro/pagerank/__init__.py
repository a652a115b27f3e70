"""PageRank kernels.

* :mod:`repro.pagerank.config` — solver parameters (teleportation alpha,
  tolerance, iteration cap, dangling-mass policy).
* :mod:`repro.pagerank.reference` — slow, obviously-correct implementations
  used as test oracles.
* :mod:`repro.pagerank.spmv` — the pull-style power iteration over k
  temporal CSR windows as the columns of one iterate, and the paper's
  SpMV kernel as its k=1 case.
* :mod:`repro.pagerank.init` — full and partial initialization (eq. 4).
* :mod:`repro.pagerank.spmm` — the SpMM-inspired multi-window kernel
  (Section 4.4): the batch setup for the same power iteration.
* :mod:`repro.pagerank.workspace` — reusable kernel scratch buffers shared
  across the windows of one partial-initialization chain.
* :mod:`repro.pagerank.compaction` — per-window active-edge packing (the
  literal Θ(|E_w|) iteration) and the masked/compacted path resolution.
* :mod:`repro.pagerank.incremental` — warm-startable power iteration on a
  simple CSR graph (offline cold start, streaming warm start).
"""

from repro.pagerank.compaction import (
    CompactedPull,
    CompactedUnion,
    compact_pull,
    compact_pull_union,
    compact_push,
    resolve_edge_path,
)
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import PagerankResult, BatchPagerankResult, WorkStats
from repro.pagerank.reference import (
    pagerank_dense_reference,
    pagerank_csr_reference,
)
from repro.pagerank.spmv import pagerank_window
from repro.pagerank.init import full_initialization, partial_initialization
from repro.pagerank.spmm import pagerank_windows_spmm
from repro.pagerank.weighted import pagerank_window_weighted, window_edge_weights
from repro.pagerank.propagation_blocking import pagerank_window_pb
from repro.pagerank.workspace import Workspace
from repro.pagerank.incremental import csr_pull_arrays, incremental_pagerank

__all__ = [
    "Workspace",
    "incremental_pagerank",
    "csr_pull_arrays",
    "PagerankConfig",
    "PagerankResult",
    "BatchPagerankResult",
    "WorkStats",
    "pagerank_dense_reference",
    "pagerank_csr_reference",
    "pagerank_window",
    "full_initialization",
    "partial_initialization",
    "pagerank_windows_spmm",
    "pagerank_window_weighted",
    "window_edge_weights",
    "pagerank_window_pb",
    "CompactedPull",
    "CompactedUnion",
    "compact_pull",
    "compact_pull_union",
    "compact_push",
    "resolve_edge_path",
]
