"""Adapter: run arbitrary per-window kernels on the vertex-program engine.

:class:`CallableProgram` wraps any callable taking a
:class:`~repro.graph.temporal_csr.WindowView` as a non-iterative
:class:`~repro.programs.base.VertexProgram` whose outputs ride in each
window's generic ``value`` slot (``vertex_values=False``), and
:class:`TemporalKernelDriver` is a thin shell over
:func:`~repro.programs.engine.solve_program_chain`.

Routing the kernel driver through the engine fixes its per-window graph
materialization: the old loop called ``graph.window_view(w)`` with no
workspace, reallocating every window's scratch buffers, while the engine
builds each chain's views against one pooled
:class:`~repro.pagerank.workspace.Workspace`.  It also moves the
``thread`` executor's unit of parallelism from single windows to whole
multi-window graphs — the same coarse granularity the postmortem driver
uses, and the one a pooled workspace requires (a workspace is not
thread-safe across concurrent views).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec
from repro.graph.multiwindow import MultiWindowPartition
from repro.graph.temporal_csr import WindowView
from repro.models.base import RunResult, WindowResult
from repro.pagerank.result import PagerankResult
from repro.programs.base import VertexProgram
from repro.programs.engine import solve_program_chain
from repro.runtime.base import record_run_metadata
from repro.runtime.context import DriverContext
from repro.runtime.execution import map_tasks, require_executor
from repro.runtime.sinks import chain_sinks

__all__ = ["CallableProgram", "Kernel", "KernelWindowResult",
           "TemporalKernelDriver"]

Kernel = Callable[[WindowView], Any]

#: compatibility alias: one window's kernel output rides in
#: ``WindowResult.value``
KernelWindowResult = WindowResult


@dataclass(frozen=True)
class CallableProgram(VertexProgram):
    """A user-supplied per-window kernel as a vertex program.

    The kernel may return anything — a per-vertex array, a scalar, a
    components summary; ``vertex_values=False`` tells the engine to emit
    it through :class:`~repro.models.base.WindowResult`'s generic
    ``value`` slot rather than the scattered rank-vector path.  With
    ``to_global_values`` set, per-vertex float arrays in the multi-window
    local space are scattered to the global vertex space on the way out.

    Unlike the registered programs this one holds a callable, so it is
    picklable only when the kernel is (module-level kernels are; lambdas
    are not) — the kernel driver's executors (serial/thread) never need
    to pickle it.
    """

    kernel: Kernel
    to_global_values: bool = False

    name = "kernel"
    iterative = False
    supports_batch = False
    vertex_values = False

    def init_window(self, view: WindowView) -> None:
        return None

    def solve_window(
        self,
        view: WindowView,
        x0=None,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> PagerankResult:
        # the engine reads only ``.values`` and ``.work`` off generic
        # programs' results; iteration/convergence slots are vacuous
        return PagerankResult(
            values=self.kernel(view),
            iterations=0,
            converged=True,
            residual=0.0,
        )


class TemporalKernelDriver:
    """Postmortem execution of a per-window kernel.

    >>> driver = TemporalKernelDriver(events, spec, n_multiwindows=6)
    >>> result = driver.run(connected_components)
    >>> result.series(lambda c: c.n_components)
    """

    model_name = "kernel"
    supported_executors = ("serial", "thread")

    def __init__(
        self,
        events: TemporalEventSet,
        spec: WindowSpec,
        n_multiwindows: int = 6,
        to_global: bool = False,
        *,
        context: Optional[DriverContext] = None,
    ) -> None:
        if n_multiwindows <= 0:
            raise ValidationError("n_multiwindows must be > 0")
        self.events = events
        self.spec = spec
        self.n_multiwindows = n_multiwindows
        #: when True and the kernel returns a per-vertex array, scatter it
        #: from the multi-window local space into the global vertex space
        self.to_global = to_global
        self.context = context if context is not None else DriverContext()
        require_executor(
            self.context.executor, self.supported_executors, self.model_name
        )
        self._partition: Optional[MultiWindowPartition] = None

    @property
    def partition(self) -> MultiWindowPartition:
        if self._partition is None:
            self._partition = MultiWindowPartition(
                self.events, self.spec, self.n_multiwindows
            )
        return self._partition

    def run(
        self,
        kernel: Kernel,
        name: Optional[str] = None,
        *,
        store_values: bool = True,
        value_sink=None,
        progress=None,
    ) -> RunResult:
        """Apply ``kernel`` to every window, in window order.

        ``value_sink(window_index, value, meta)`` receives each window's
        kernel output as it is computed (per-vertex array kernels with
        ``to_global=True`` can stream straight into a rank store);
        ``store_values=False`` drops the outputs from the returned result
        after sinking.  The ``thread`` executor fans *multi-window graphs*
        out across workers — each graph's windows share one pooled
        workspace, so the graph is the unit of parallelism.
        """
        ctx = self.context
        sink = chain_sinks(ctx.value_sink, value_sink)
        progress = progress if progress is not None else ctx.progress
        result = RunResult(model=self.model_name)
        result.metadata["kernel_name"] = (
            name or getattr(kernel, "__name__", "kernel")
        )
        n = self.spec.n_windows
        ctx.emit("run.start", model=self.model_name, kernel=result.metadata[
            "kernel_name"], n_windows=n)

        with result.timings.phase("build"):
            partition = self.partition

        program = CallableProgram(kernel, to_global_values=self.to_global)
        done = [0]
        done_lock = threading.Lock()

        def emit(w: int, value, wr: WindowResult) -> None:
            if sink is not None:
                sink(w, value, wr)
            if progress is not None:
                with done_lock:
                    done[0] += 1
                    completed = done[0]
                progress(completed, n)

        def solve_graph(g: int) -> Dict[int, WindowResult]:
            window_results, _, work = solve_program_chain(
                partition[g],
                g,
                program,
                partial_init=False,
                n_global_vertices=self.events.n_vertices,
                store_values=store_values,
                value_sink=emit,
            )
            return window_results

        with result.timings.phase("kernel"):
            per_graph = map_tasks(
                solve_graph,
                range(len(partition)),
                executor=ctx.executor,
                n_workers=ctx.n_workers,
            )
            merged: Dict[int, WindowResult] = {}
            for window_results in per_graph:
                merged.update(window_results)
            result.windows = [merged[w] for w in range(n)]

        record_run_metadata(
            result, executor=ctx.executor, n_workers=ctx.n_workers,
            n_windows=n,
        )
        ctx.emit("run.done", model=self.model_name, n_windows=n)
        return result
