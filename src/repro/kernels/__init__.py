"""Additional temporal-graph analysis kernels (paper Section 3.1).

The paper focuses on PageRank but notes the temporal graph "could be
analyzed in various ways ... using other kernels like closeness and
betweenness centrality, connecting component, k-core".  This package
implements the postmortem versions of several such kernels over the same
temporal-CSR window machinery:

* :mod:`repro.kernels.degree` — in/out degree centrality per window;
* :mod:`repro.kernels.components` — connected components (union-find);
* :mod:`repro.kernels.kcore` — k-core decomposition (peeling);
* :mod:`repro.kernels.katz` — Katz centrality's parameters and the same
  partial-initialization warm start the paper develops for PageRank; the
  solver is :class:`repro.programs.katz.KatzProgram`.

:class:`repro.programs.adapter.TemporalKernelDriver` (re-exported here)
runs any per-window kernel over a window spec through the multi-window
representation on the vertex-program engine.
"""

from repro.kernels.degree import degree_centrality
from repro.kernels.components import connected_components
from repro.kernels.kcore import core_numbers, max_core
from repro.kernels.katz import KatzConfig, katz_partial_init
from repro.kernels.bfs import bfs_distances, bfs_levels
from repro.kernels.closeness import closeness_centrality
from repro.kernels.betweenness import betweenness_centrality
from repro.programs.adapter import TemporalKernelDriver, KernelWindowResult

__all__ = [
    "degree_centrality",
    "connected_components",
    "core_numbers",
    "max_core",
    "KatzConfig",
    "katz_partial_init",
    "bfs_distances",
    "bfs_levels",
    "closeness_centrality",
    "betweenness_centrality",
    "TemporalKernelDriver",
    "KernelWindowResult",
]
