"""The postmortem execution model — the paper's contribution.

The driver builds the multi-window temporal-CSR representation **once**
(Section 4.1), then solves every window with:

* partial initialization across consecutive windows (Section 4.2),
* the SpMV kernel or the SpMM-inspired batched kernel with the strided
  region schedule (Section 4.4),
* optionally, real thread-based parallelism over windows in *contiguous
  chunks*, so a thread that owns both G_{i-1} and G_i still applies partial
  initialization (Section 4.3.1's scheduling constraint).

Since the vertex-program refactor the per-graph chain loop lives in
:mod:`repro.programs.engine`; this driver binds it to a
:class:`~repro.programs.base.VertexProgram` (PageRank by default — the
reference instance, bitwise-identical to the historic driver) and keeps
the model-level concerns: partitioning, executors, sinks, and the
machine-independent *task log* (per-window and per-batch work counters)
that the discrete-event machine simulator
(:mod:`repro.parallel.simulator`) replays to estimate multicore speedups —
the documented substitution for the paper's 48-core TBB runs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Union

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec
from repro.graph.multiwindow import (
    LazyMultiWindowPartition,
    MultiWindowGraph,
    MultiWindowPartition,
    build_compact_graph,
)
from repro.utils.arrays import is_mmap_backed
from repro.models.base import RunResult, WindowResult
from repro.pagerank.config import PagerankConfig
from repro.programs.base import VertexProgram
from repro.programs.engine import TaskRecord, solve_program_chain
from repro.programs.registry import resolve_program
from repro.runtime.base import record_run_metadata
from repro.runtime.context import DriverContext
from repro.runtime.sinks import chain_sinks

__all__ = [
    "PostmortemOptions",
    "PostmortemDriver",
    "TaskRecord",
    "solve_multiwindow_graph",
]

_KERNELS = ("spmv", "spmm")
_EXECUTORS = ("serial", "thread", "process", "shared")


@dataclass(frozen=True)
class PostmortemOptions:
    """Tuning knobs of the postmortem model.

    Attributes
    ----------
    n_multiwindows:
        Number of multi-window graphs Y (paper default in Figure 5: 6).
    partial_init:
        Warm-start each window from its predecessor (within the same
        multi-window graph).
    kernel:
        ``"spmv"`` (one window at a time) or ``"spmm"`` (batched windows
        with the region schedule; programs without a batched kernel fall
        back to the sequential schedule).
    vector_length:
        SpMM batch width (the paper uses 8 or 16).
    executor:
        ``"serial"``, ``"thread"`` (threads over multi-window graphs;
        scales only when kernels release the GIL), ``"process"``
        (process pool over multi-window graphs; true parallelism on any
        CPython at the cost of pickling each graph to its worker) or
        ``"shared"`` (process pool attached to a shared-memory arena:
        graphs are published once via
        :mod:`repro.parallel.shared_arena`, workers receive only
        segment-name handles — no array payload crosses the pickle
        boundary — and ``value_sink`` callbacks run in the parent, fed
        by a result shuttle).
    n_threads:
        Worker count for the ``"thread"``, ``"process"`` and
        ``"shared"`` executors.
    partition_method:
        ``"uniform"`` (the paper's equal-window-count split),
        ``"minimax"`` or ``"greedy"`` (the work-balanced splits of
        :mod:`repro.graph.balanced` — the paper's Section 7 open
        question).
    weighted:
        Weight window edges by their event multiplicity
        (:mod:`repro.pagerank.weighted`); requires the SpMV kernel and
        the PageRank program.
    materialize:
        ``"eager"`` builds every multi-window graph up front (the
        historic behaviour), ``"lazy"`` defers each graph until its
        worker solves it (peak memory: one graph per concurrent worker;
        requires the uniform partition), ``"auto"`` picks lazy exactly
        when the event arrays are memory-mapped (a ``.tcsr`` artifact)
        and the partition is uniform — the out-of-core configuration —
        and eager otherwise.  Results are identical either way.
    """

    n_multiwindows: int = 6
    partial_init: bool = True
    kernel: str = "spmv"
    vector_length: int = 16
    executor: str = "serial"
    n_threads: int = 4
    partition_method: str = "uniform"
    weighted: bool = False
    materialize: str = "auto"

    def __post_init__(self) -> None:
        if self.n_multiwindows <= 0:
            raise ValidationError("n_multiwindows must be > 0")
        if self.kernel not in _KERNELS:
            raise ValidationError(f"kernel must be one of {_KERNELS}")
        if self.vector_length <= 0:
            raise ValidationError("vector_length must be > 0")
        if self.executor not in _EXECUTORS:
            raise ValidationError(f"executor must be one of {_EXECUTORS}")
        if self.n_threads <= 0:
            raise ValidationError("n_threads must be > 0")
        if self.partition_method not in ("uniform", "minimax", "greedy"):
            raise ValidationError(
                "partition_method must be 'uniform', 'minimax' or 'greedy'"
            )
        if self.weighted and self.kernel != "spmv":
            raise ValidationError(
                "weighted PageRank requires kernel='spmv'"
            )
        if self.materialize not in ("auto", "eager", "lazy"):
            raise ValidationError(
                "materialize must be 'auto', 'eager' or 'lazy'"
            )
        if self.materialize == "lazy" and self.partition_method != "uniform":
            raise ValidationError(
                "materialize='lazy' requires partition_method='uniform' "
                "(balanced partitions need event counts for every window "
                "boundary up front)"
            )


class PostmortemDriver:
    """Runs Algorithm 1 under the postmortem model."""

    model_name = "postmortem"
    supported_executors = _EXECUTORS

    def __init__(
        self,
        events: TemporalEventSet,
        spec: WindowSpec,
        config: PagerankConfig = PagerankConfig(),
        options: PostmortemOptions = PostmortemOptions(),
        *,
        context: Optional[DriverContext] = None,
        program: Union[None, str, VertexProgram] = None,
    ) -> None:
        self.events = events
        self.spec = spec
        self.options = options
        # executor authority stays with PostmortemOptions (the model's
        # tuning surface); the context contributes sinks, hooks and the
        # runtime edge-path/program overrides
        self.context = (
            context if context is not None else DriverContext()
        ).with_execution(options.executor, options.n_threads)
        if self.context.edge_path is not None:
            config = replace(config, edge_path=self.context.edge_path)
        self.config = config
        if program is None:
            program = self.context.program
        self.program = resolve_program(
            program, self.config, weighted=options.weighted
        )
        self._partition: Optional[MultiWindowPartition] = None

    # ------------------------------------------------------------------
    def _lazy_materialize(self) -> bool:
        """Whether this run defers graph construction to solve time."""
        if self.options.materialize == "lazy":
            return True
        if self.options.materialize == "eager":
            return False
        return (
            self.options.partition_method == "uniform"
            and is_mmap_backed(self.events.time)
        )

    @property
    def partition(self) -> MultiWindowPartition:
        """The multi-window representation (built lazily, once)."""
        if self._partition is None:
            if self.options.partition_method == "uniform":
                cls = (
                    LazyMultiWindowPartition
                    if self._lazy_materialize()
                    else MultiWindowPartition
                )
                self._partition = cls(
                    self.events, self.spec, self.options.n_multiwindows
                )
            else:
                from repro.graph.balanced import BalancedMultiWindowPartition

                self._partition = BalancedMultiWindowPartition(
                    self.events,
                    self.spec,
                    self.options.n_multiwindows,
                    method=self.options.partition_method,
                )
        return self._partition

    def run(
        self,
        store_values: bool = True,
        value_sink=None,
        *,
        progress=None,
    ) -> RunResult:
        """Solve every window; ``store_values=False`` keeps only per-window
        summaries (benchmark mode).

        ``value_sink`` is an optional callback ``sink(window_index, values,
        meta)`` invoked with each window's *global* value vector the moment
        it is solved — e.g. ``RankStoreWriter.write_window`` to stream a
        servable rank store to disk (chained after any context-level
        sink).  Combined with ``store_values=False`` a run persists every
        vector while holding only one in memory at a time.  The sink may
        be called concurrently under the ``"thread"`` executor (rank-store
        writers lock internally); the ``"process"`` executor cannot ship a
        callback to its workers — use ``executor="shared"``, whose result
        shuttle invokes the sink in the parent process.

        ``progress(graphs_done, graphs_total)`` reports at multi-window
        graph granularity — the model's unit of parallel work.
        """
        ctx = self.context
        executor = ctx.executor
        sink = chain_sinks(ctx.value_sink, value_sink)
        progress = progress if progress is not None else ctx.progress
        if sink is not None and executor == "process":
            raise ValidationError(
                "value_sink is not supported with executor='process' "
                "(the callback cannot cross the process boundary); "
                "use executor='shared', which runs the sink in the parent"
            )
        result = RunResult(model=self.model_name)
        ctx.emit("run.start", model=self.model_name, executor=executor,
                 n_windows=self.spec.n_windows, program=self.program.name)
        with result.timings.phase("build"):
            partition = self.partition
        ctx.emit("build.done", n_multiwindows=len(partition))

        task_log: List[TaskRecord] = []
        window_results: Dict[int, WindowResult] = {}
        n_graphs = len(partition)
        done = 0

        def consume(task_result) -> None:
            wrs, tasks, work = task_result
            window_results.update(wrs)
            task_log.extend(tasks)
            result.work.merge(work)

        lazy = isinstance(partition, LazyMultiWindowPartition)
        if executor == "shared" and n_graphs > 1 and lazy:
            # publish the raw event columns (zero-copy when they are
            # .tcsr-mapped) and ship only build recipes; each worker
            # slices, compacts and solves its graph in-process
            from repro.parallel.shared_arena import run_arena_tasks

            with result.timings.phase("pagerank"):
                task_results, stats = run_arena_tasks(
                    {
                        "src": self.events.src,
                        "dst": self.events.dst,
                        "time": self.events.time,
                    },
                    [partition.graph_payload(i) for i in range(n_graphs)],
                    _shared_lazy_graph_worker,
                    args=(
                        self.config,
                        self.options,
                        self.events.n_vertices,
                        store_values,
                        self.program,
                    ),
                    n_workers=ctx.n_workers,
                    value_sink=sink,
                )
            for task_result in task_results:
                consume(task_result)
                done += 1
                if progress is not None:
                    progress(done, n_graphs)
            result.metadata["shared_arena"] = stats
        elif executor == "shared" and n_graphs > 1:
            from repro.parallel.shared_arena import run_shared_tasks

            with result.timings.phase("pagerank"):
                task_results, stats = run_shared_tasks(
                    partition.graphs,
                    _shared_graph_worker,
                    args=(
                        self.config,
                        self.options,
                        self.events.n_vertices,
                        store_values,
                        self.program,
                    ),
                    n_workers=ctx.n_workers,
                    value_sink=sink,
                )
            for task_result in task_results:
                consume(task_result)
                done += 1
                if progress is not None:
                    progress(done, n_graphs)
            result.metadata["shared_arena"] = stats
        elif executor in ("thread", "process") and n_graphs > 1:
            # one task per multi-window graph: the graph is the coarse
            # parallel unit (its windows chain through partial init)
            pool_cls = (
                ThreadPoolExecutor
                if executor == "thread"
                else ProcessPoolExecutor
            )
            with result.timings.phase("pagerank"):
                with pool_cls(ctx.n_workers) as pool:
                    if lazy:
                        # ship the recipe, not the graph: workers build
                        # inside the pool, bounding live graphs at
                        # n_workers (a lazy partition pickles by
                        # artifact path, so process submission is cheap)
                        futures = [
                            pool.submit(
                                _solve_lazy_task,
                                partition,
                                i,
                                self.config,
                                self.options,
                                self.events.n_vertices,
                                store_values,
                                sink,
                                self.program,
                            )
                            for i in range(n_graphs)
                        ]
                    else:
                        futures = [
                            pool.submit(
                                solve_multiwindow_graph,
                                g,
                                i,
                                self.config,
                                self.options,
                                self.events.n_vertices,
                                store_values,
                                sink,
                                self.program,
                            )
                            for i, g in enumerate(partition)
                        ]
                    for fut in futures:
                        consume(fut.result())
                        done += 1
                        if progress is not None:
                            progress(done, n_graphs)
        else:
            with result.timings.phase("pagerank"):
                for i, g in enumerate(partition):
                    consume(self._solve_graph(g, i, store_values, sink))
                    done += 1
                    ctx.emit("graph.done", multiwindow=i)
                    if progress is not None:
                        progress(done, n_graphs)

        result.windows = [
            window_results[i] for i in range(self.spec.n_windows)
        ]
        record_run_metadata(
            result,
            executor=executor,
            n_workers=ctx.n_workers,
            n_windows=self.spec.n_windows,
        )
        result.metadata["n_multiwindows"] = len(partition)
        result.metadata["replication_factor"] = partition.replication_factor
        result.metadata["materialize"] = "lazy" if lazy else "eager"
        result.metadata["program"] = self.program.name
        result.metadata["task_log"] = task_log
        result.metadata["options"] = self.options
        ctx.emit("run.done", model=self.model_name,
                 n_windows=self.spec.n_windows)
        return result

    # ------------------------------------------------------------------
    def _solve_graph(
        self,
        graph: MultiWindowGraph,
        mw_index: int,
        store_values: bool,
        value_sink=None,
    ):
        """Solve every window of one multi-window graph (one sequential
        warm-start chain).

        ``mw_index`` is passed by the caller: a ``partition.graphs.index``
        lookup here would rescan the partition (O(Y) comparisons of large
        graphs) for every graph solved.
        """
        return solve_multiwindow_graph(
            graph,
            mw_index,
            self.config,
            self.options,
            self.events.n_vertices,
            store_values,
            value_sink,
            self.program,
        )


def _shared_graph_worker(
    graph: MultiWindowGraph,
    mw_index: int,
    sink,
    config: PagerankConfig,
    options: PostmortemOptions,
    n_global_vertices: int,
    store_values: bool,
    program: Optional[VertexProgram] = None,
):
    """Worker entry point for the ``"shared"`` executor.

    Invoked by :func:`repro.parallel.shared_arena.run_shared_tasks` with a
    graph rebuilt from shared-memory views and a queue-backed ``sink``
    stand-in (or ``None`` when the run has no ``value_sink``).
    """
    return solve_multiwindow_graph(
        graph,
        mw_index,
        config,
        options,
        n_global_vertices,
        store_values,
        sink,
        program,
    )


def _shared_lazy_graph_worker(
    view,
    payload,
    mw_index: int,
    sink,
    config: PagerankConfig,
    options: PostmortemOptions,
    n_global_vertices: int,
    store_values: bool,
    program: Optional[VertexProgram] = None,
):
    """Arena worker for the lazy ``"shared"`` path.

    ``view`` holds the published event columns (file mappings when the
    run came from a ``.tcsr`` artifact — zero bytes were copied);
    ``payload`` is one :meth:`LazyMultiWindowPartition.graph_payload`
    recipe.  The graph is built here, inside the worker, and dies with
    the task — the parent never materializes it.
    """
    sub, first_window, lo, hi = payload
    graph = build_compact_graph(
        view.shared_view("src")[lo:hi],
        view.shared_view("dst")[lo:hi],
        view.shared_view("time")[lo:hi],
        sub,
        first_window,
    )
    return solve_multiwindow_graph(
        graph,
        mw_index,
        config,
        options,
        n_global_vertices,
        store_values,
        sink,
        program,
    )


def _solve_lazy_task(
    partition: LazyMultiWindowPartition,
    mw_index: int,
    config: PagerankConfig,
    options: PostmortemOptions,
    n_global_vertices: int,
    store_values: bool,
    value_sink=None,
    program: Optional[VertexProgram] = None,
):
    """Pool task for lazy thread/process execution: materialize one
    multi-window graph inside the worker, solve it, drop it."""
    graph = partition.graph_at(mw_index)
    return solve_multiwindow_graph(
        graph,
        mw_index,
        config,
        options,
        n_global_vertices,
        store_values,
        value_sink,
        program,
    )


def solve_multiwindow_graph(
    graph: MultiWindowGraph,
    mw_index: int,
    config: PagerankConfig,
    options: PostmortemOptions,
    n_global_vertices: int,
    store_values: bool,
    value_sink=None,
    program: Optional[VertexProgram] = None,
):
    """Solve every window of one multi-window graph.

    The model-level wrapper over :func:`repro.programs.engine.
    solve_program_chain`: it resolves the program (PageRank with
    ``options.weighted`` when none is given — the historic behaviour) and
    forwards the chain knobs from :class:`PostmortemOptions`.
    """
    if program is None:
        program = resolve_program(None, config, weighted=options.weighted)
    return solve_program_chain(
        graph,
        mw_index,
        program,
        partial_init=options.partial_init,
        kernel=options.kernel,
        vector_length=options.vector_length,
        n_global_vertices=n_global_vertices,
        store_values=store_values,
        value_sink=value_sink,
    )
