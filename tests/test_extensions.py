"""Tests for the extension components: propagation blocking, the delta
incremental engine, and their integration points."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.graph import TemporalAdjacency, build_csr_from_edges
from repro.pagerank import PagerankConfig, pagerank_window
from repro.pagerank.propagation_blocking import (
    PropagationBlockingKernel,
    pagerank_window_pb,
)
from repro.streaming import StreamingDriver
from repro.streaming.delta import delta_incremental_pagerank
from repro.pagerank.incremental import incremental_pagerank
from tests.conftest import random_events

CFG = PagerankConfig(tolerance=1e-12, max_iterations=400)


class TestPropagationBlocking:
    def test_matches_pull_kernel(self, events, spec):
        adj = TemporalAdjacency.from_events(events)
        for w in spec:
            view = adj.window_view(w)
            pull = pagerank_window(view, CFG)
            pb = pagerank_window_pb(view, CFG)
            assert np.allclose(pull.values, pb.values, atol=1e-9), w.index

    @pytest.mark.parametrize("n_bins", [1, 3, 16, 1000])
    def test_any_bin_count(self, adjacency, spec, n_bins):
        view = adjacency.window_view(spec.window(1))
        pb = pagerank_window_pb(view, CFG, n_bins=n_bins)
        pull = pagerank_window(view, CFG)
        assert np.allclose(pb.values, pull.values, atol=1e-9)

    def test_kernel_reuse(self, adjacency, spec):
        view = adjacency.window_view(spec.window(0))
        kernel = PropagationBlockingKernel(view, n_bins=8)
        a = pagerank_window_pb(view, CFG, kernel=kernel)
        b = pagerank_window_pb(view, CFG, kernel=kernel)
        assert np.array_equal(a.values, b.values)

    def test_bins_partition_edges(self, adjacency, spec):
        view = adjacency.window_view(spec.window(0))
        kernel = PropagationBlockingKernel(view, n_bins=8)
        covered = sum(
            int(e - s) for s, e in zip(kernel.bin_starts, kernel.bin_ends)
        )
        assert covered == kernel.src.size == view.n_active_edges

    def test_empty_window(self, adjacency):
        from repro.events import Window

        view = adjacency.window_view(Window(0, 10**9, 10**9 + 1))
        r = pagerank_window_pb(view, CFG)
        assert r.converged and np.all(r.values == 0)

    def test_rejects_bad_bins(self, adjacency, spec):
        view = adjacency.window_view(spec.window(0))
        with pytest.raises(ValidationError):
            PropagationBlockingKernel(view, n_bins=0)

    def test_warm_start(self, adjacency, spec):
        view = adjacency.window_view(spec.window(0))
        exact = pagerank_window(view, CFG)
        warm = pagerank_window_pb(view, CFG, x0=exact.values)
        assert warm.iterations <= 2


class TestDeltaIncremental:
    @pytest.fixture
    def sliding(self):
        events = random_events(n_vertices=50, n_events=2_500, t_max=50_000,
                               seed=33)
        spec = WindowSpec.covering(events, delta=15_000, sw=800)
        return events, spec

    def _window_graph(self, events, w):
        src, dst = events.edges_between(w.t_start, w.t_end)
        g = build_csr_from_edges(src, dst, events.n_vertices)
        active = np.zeros(events.n_vertices, dtype=bool)
        active[src] = True
        active[dst] = True
        return g, active

    def test_same_fixed_point_as_full(self, sliding):
        events, spec = sliding
        g0, a0 = self._window_graph(events, spec.window(0))
        prev = incremental_pagerank(g0, CFG, active=a0)
        for i in (1, 2, 3):
            g, a = self._window_graph(events, spec.window(i))
            full = incremental_pagerank(g, CFG, active=a)
            delta = delta_incremental_pagerank(g, prev.values, CFG, active=a)
            assert np.abs(full.values - delta.values).max() < 1e-7, i
            prev = full

    def test_converged_start_is_cheap(self, sliding):
        events, spec = sliding
        g, a = self._window_graph(events, spec.window(0))
        exact = incremental_pagerank(g, CFG, active=a)
        again = delta_incremental_pagerank(g, exact.values, CFG, active=a)
        # starting from the fixed point: little-to-no frontier work
        assert again.work.edge_traversals <= exact.work.edge_traversals // 4

    def test_empty_graph(self):
        g = build_csr_from_edges([], [], 5)
        r = delta_incremental_pagerank(
            g, np.zeros(5), CFG, active=np.zeros(5, dtype=bool)
        )
        assert r.converged

    def test_rejects_bad_prev(self, sliding):
        events, spec = sliding
        g, a = self._window_graph(events, spec.window(0))
        with pytest.raises(ValidationError):
            delta_incremental_pagerank(g, np.zeros(3), CFG, active=a)

    def test_driver_engine_delta_matches_warm(self, sliding):
        events, spec = sliding
        small = WindowSpec(spec.t0, spec.delta, spec.sw, 6)
        warm = StreamingDriver(events, small, CFG, engine="warm").run()
        delta = StreamingDriver(events, small, CFG, engine="delta").run()
        assert warm.max_difference(delta) < 1e-6

    def test_driver_rejects_bad_engine(self, sliding):
        events, spec = sliding
        with pytest.raises(ValueError):
            StreamingDriver(events, spec, CFG, engine="magic")
