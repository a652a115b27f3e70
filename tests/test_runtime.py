"""Unit tests for the shared execution runtime (``repro.runtime``)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.models.base import RunResult, WindowResult
from repro.pagerank import PagerankConfig
from repro.runtime import (
    EXECUTORS,
    MODELS,
    NULL_SCOPE,
    DriverContext,
    ModelDriver,
    RunScope,
    chain_sinks,
    counting_sink,
    make_driver,
    map_tasks,
    record_run_metadata,
    require_executor,
)
from tests.conftest import random_events


@pytest.fixture
def setup():
    events = random_events(n_vertices=25, n_events=400, seed=7)
    spec = WindowSpec.covering(events, delta=2_500, sw=900)
    cfg = PagerankConfig(tolerance=1e-10, max_iterations=200)
    return events, spec, cfg


class TestSinks:
    def test_chain_of_nothing_is_none(self):
        assert chain_sinks() is None
        assert chain_sinks(None, None) is None

    def test_single_sink_returned_unwrapped(self):
        calls = []
        sink = calls.append
        assert chain_sinks(None, sink) is sink

    def test_fanout_preserves_order(self):
        order = []
        a = lambda w, v, m: order.append(("a", w))
        b = lambda w, v, m: order.append(("b", w))
        fan = chain_sinks(a, None, b)
        fan(3, None, None)
        assert order == [("a", 3), ("b", 3)]

    def test_counting_sink(self):
        counter = {}
        sink = counting_sink(counter)
        sink(0, np.ones(3), None)
        sink(1, np.ones(3), None)
        sink(1, np.ones(3), None)
        assert counter == {0: 1, 1: 2}


class TestDriverContext:
    def test_defaults(self):
        ctx = DriverContext()
        assert ctx.executor == "serial"
        assert ctx.n_workers == 4
        assert ctx.value_sink is None

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValidationError):
            DriverContext(executor="gpu")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValidationError):
            DriverContext(n_workers=0)

    def test_with_execution_preserves_sinks(self):
        counter = {}
        sink = counting_sink(counter)
        ctx = DriverContext(value_sink=sink).with_execution("thread", 2)
        assert ctx.executor == "thread"
        assert ctx.n_workers == 2
        assert ctx.value_sink is sink

    def test_emit_forwards_to_trace(self):
        seen = []
        ctx = DriverContext(trace=lambda ev, payload: seen.append((ev, payload)))
        ctx.emit("window.done", index=4)
        assert seen == [("window.done", {"index": 4})]

    def test_emit_without_trace_is_noop(self):
        DriverContext().emit("run.start")


class TestExecution:
    def test_executor_registry(self):
        assert EXECUTORS == ("serial", "thread", "process", "shared")

    def test_require_executor_accepts_supported(self):
        require_executor("thread", ("serial", "thread"), "offline")

    def test_require_executor_rejects_unsupported(self):
        with pytest.raises(ValidationError, match="streaming"):
            require_executor("process", ("serial",), "streaming")

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_map_tasks_preserves_order(self, executor):
        out = list(
            map_tasks(lambda x: x * x, range(17), executor=executor,
                      n_workers=3)
        )
        assert out == [x * x for x in range(17)]

    @pytest.mark.parametrize("executor", ["process", "shared"])
    def test_map_tasks_rejects_multiprocess(self, executor):
        with pytest.raises(ValidationError):
            list(map_tasks(lambda x: x, [1], executor=executor))


class TestRunScope:
    def test_phases_and_merge(self):
        result = RunResult(model="test", windows=[])
        scope = RunScope.into(result)
        with scope.phase("build"):
            pass
        with scope.phase("pagerank"):
            pass
        assert result.timings.counts["build"] == 1
        assert result.timings.counts["pagerank"] == 1

    def test_detached_scope_merges_later(self):
        scope = RunScope()
        with scope.phase("pagerank"):
            pass
        result = RunResult(model="test", windows=[])
        scope.merge_into(result)
        assert result.timings.counts["pagerank"] == 1

    def test_null_scope_is_inert(self):
        with NULL_SCOPE.phase("anything"):
            pass  # no state to observe; must simply not raise


class TestRecordRunMetadata:
    def test_serial_forces_one_worker(self):
        result = RunResult(model="test", windows=[])
        record_run_metadata(result, executor="serial", n_workers=8,
                            n_windows=5)
        assert result.metadata["executor"] == "serial"
        assert result.metadata["n_workers"] == 1
        assert result.metadata["n_windows"] == 5

    def test_parallel_keeps_worker_count(self):
        result = RunResult(model="test", windows=[])
        record_run_metadata(result, executor="thread", n_workers=8,
                            n_windows=5)
        assert result.metadata["n_workers"] == 8


class TestRegistry:
    def test_models_tuple(self):
        assert MODELS == ("offline", "streaming", "postmortem")

    @pytest.mark.parametrize("model", MODELS)
    def test_make_driver_satisfies_protocol(self, setup, model):
        events, spec, cfg = setup
        driver = make_driver(model, events, spec, cfg)
        assert isinstance(driver, ModelDriver)
        assert driver.model_name == model
        assert "serial" in driver.supported_executors

    def test_unknown_model_rejected(self, setup):
        events, spec, cfg = setup
        with pytest.raises(ValidationError):
            make_driver("quantum", events, spec, cfg)

    def test_context_threads_through(self, setup):
        events, spec, cfg = setup
        ctx = DriverContext(executor="thread", n_workers=2)
        driver = make_driver("offline", events, spec, cfg, context=ctx)
        run = driver.run()
        assert run.metadata["executor"] == "thread"
        assert run.metadata["n_workers"] == 2
        assert run.metadata["n_windows"] == spec.n_windows


class TestWindowResultFold:
    """KernelRunResult/KernelWindowResult are folded into the shared pair."""

    def test_kernel_aliases_are_the_shared_types(self):
        from repro.programs.adapter import KernelWindowResult

        assert KernelWindowResult is WindowResult

    def test_series_orders_by_window_index(self):
        run = RunResult(
            model="kernel",
            windows=[
                WindowResult(window_index=1, value=10),
                WindowResult(window_index=0, value=5),
            ],
        )
        assert run.kernel_values() == [5, 10]
        np.testing.assert_array_equal(
            run.series(lambda v: v * 2.0), np.array([10.0, 20.0])
        )
