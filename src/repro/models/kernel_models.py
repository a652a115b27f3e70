"""The three execution models for *arbitrary* window kernels.

The paper's Section 3.1 argues the sliding-window methodology applies to
"other kernels like closeness and betweenness centrality, connecting
component, k-core".  This module generalizes the execution-model
comparison beyond PageRank: run any per-window kernel under

* **offline** — rebuild the window's CSR from the event log each time;
* **streaming** — slide the STINGER-like structure and snapshot it;
* **postmortem** — the multi-window temporal CSR
  (:class:`~repro.programs.adapter.TemporalKernelDriver`).

Kernels receive a :class:`~repro.graph.temporal_csr.WindowView` in the
postmortem model and a ``(CSRGraph, active_mask)`` pair in the other two;
:func:`adapt_view_kernel` bridges the two signatures so one kernel
definition serves all three models.  The extension bench
(``benchmarks/bench_extension_kcore.py``) uses this to show the postmortem
representation advantage is not PageRank-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec
from repro.graph.csr import CSRGraph, build_csr_from_edges
from repro.graph.temporal_csr import TemporalAdjacency, WindowView
from repro.programs.adapter import TemporalKernelDriver
from repro.streaming.stinger import StreamingGraph
from repro.utils.timer import TimingAccumulator

__all__ = [
    "GraphKernel",
    "adapt_view_kernel",
    "KernelModelRun",
    "offline_kernel_run",
    "streaming_kernel_run",
    "streaming_kernel_run_stateful",
    "postmortem_kernel_run",
]

#: a kernel over a materialized simple graph: (graph, active_mask) -> value
GraphKernel = Callable[[CSRGraph, np.ndarray], Any]
"""Type alias: kernels the offline/streaming runners execute."""


def adapt_view_kernel(graph_kernel: GraphKernel) -> Callable[[WindowView], Any]:
    """Lift a (graph, active) kernel to the WindowView signature the
    postmortem driver uses."""

    def view_kernel(view: WindowView):
        return graph_kernel(view.compact_graph(), view.active_vertices_mask)

    view_kernel.__name__ = getattr(graph_kernel, "__name__", "kernel")
    return view_kernel


@dataclass
class KernelModelRun:
    """One model's outputs and timings for a kernel sweep."""

    model: str
    values: List[Any] = field(default_factory=list)
    timings: TimingAccumulator = field(default_factory=TimingAccumulator)

    @property
    def total_time(self) -> float:
        return self.timings.total


def _active_mask(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[src] = True
    mask[dst] = True
    return mask


def offline_kernel_run(
    events: TemporalEventSet,
    spec: WindowSpec,
    kernel: GraphKernel,
) -> KernelModelRun:
    """Rebuild-per-window execution of a graph kernel."""
    run = KernelModelRun(model="offline")
    for window in spec:
        with run.timings.phase("build"):
            src, dst = events.edges_between(window.t_start, window.t_end)
            graph = build_csr_from_edges(
                src, dst, events.n_vertices, dedup=True
            )
            active = _active_mask(src, dst, events.n_vertices)
        with run.timings.phase("kernel"):
            run.values.append(kernel(graph, active))
    return run


def streaming_kernel_run(
    events: TemporalEventSet,
    spec: WindowSpec,
    kernel: GraphKernel,
    block_size: int = 64,
) -> KernelModelRun:
    """Sliding STINGER-like execution of a graph kernel."""
    run = KernelModelRun(model="streaming")
    stream = StreamingGraph(events, block_size)
    for window in spec:
        with run.timings.phase("update"):
            stream.advance_to(window)
        with run.timings.phase("snapshot"):
            graph, active = stream.snapshot()
        with run.timings.phase("kernel"):
            run.values.append(kernel(graph, active))
    return run


def streaming_kernel_run_stateful(
    events: TemporalEventSet,
    spec: WindowSpec,
    kernel,
    block_size: int = 64,
) -> KernelModelRun:
    """Streaming execution of a *stateful* kernel.

    The kernel signature is ``(graph, active, prev_value) -> value`` with
    ``prev_value=None`` on the first window — the generic form of the
    streaming model's warm-start advantage (incremental PageRank, Katz,
    etc. all fit it).
    """
    run = KernelModelRun(model="streaming-stateful")
    stream = StreamingGraph(events, block_size)
    prev = None
    for window in spec:
        with run.timings.phase("update"):
            stream.advance_to(window)
        with run.timings.phase("snapshot"):
            graph, active = stream.snapshot()
        with run.timings.phase("kernel"):
            value = kernel(graph, active, prev)
        run.values.append(value)
        prev = value
    return run


def postmortem_kernel_run(
    events: TemporalEventSet,
    spec: WindowSpec,
    kernel: GraphKernel,
    n_multiwindows: int = 6,
    view_kernel: Optional[Callable[[WindowView], Any]] = None,
) -> KernelModelRun:
    """Multi-window temporal-CSR execution of a graph kernel.

    ``view_kernel`` may supply a mask-native implementation that skips the
    per-window compaction entirely (e.g. the degree or PageRank kernels);
    by default the graph kernel runs on the window's compacted CSR in the
    local vertex space.
    """
    run = KernelModelRun(model="postmortem")
    driver = TemporalKernelDriver(events, spec, n_multiwindows)
    inner = view_kernel or adapt_view_kernel(kernel)
    result = driver.run(inner)
    run.values = result.kernel_values()
    run.timings = result.timings
    return run
