"""Unit tests for the streaming graph, incremental PageRank and driver."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.graph import build_csr_from_edges
from repro.pagerank import PagerankConfig
from repro.pagerank.reference import pagerank_csr_reference
from repro.streaming import StreamingDriver, StreamingGraph
from repro.pagerank.incremental import csr_pull_arrays, incremental_pagerank
from tests.conftest import random_events


class TestStreamingGraph:
    def test_window_state_matches_rebuild(self, events, spec):
        """After each slide the streaming structure must hold exactly the
        window's simple graph."""
        stream = StreamingGraph(events)
        for w in spec:
            stream.advance_to(w)
            graph, active = stream.snapshot()
            lo, hi = events.time_slice_indices(w.t_start, w.t_end)
            expected = build_csr_from_edges(
                events.src[lo:hi], events.dst[lo:hi], events.n_vertices
            )
            assert graph == expected, w.index

    def test_cannot_rewind(self, events, spec):
        stream = StreamingGraph(events)
        stream.advance_to(spec.window(3))
        with pytest.raises(ValidationError):
            stream.advance_to(spec.window(1))

    def test_update_summaries(self, events, spec):
        stream = StreamingGraph(events)
        inserted = 0
        for w in spec:
            s = stream.advance_to(w)
            inserted += s.inserted
            assert s.live_entries == stream.n_live_entries
        # every event whose timestamp <= last window end was streamed in
        last_end = spec.window(spec.n_windows - 1).t_end
        assert inserted == events.count_between(events.t_min, last_end)


class TestIncrementalPagerank:
    def test_pull_arrays_match_transpose(self):
        g = build_csr_from_edges([0, 1, 2], [1, 2, 0], 3)
        indptr, col = csr_pull_arrays(g)
        tr = g.transpose()
        assert np.array_equal(indptr, tr.indptr)
        assert np.array_equal(col, tr.col)

    def test_matches_reference_cold(self, events, spec):
        cfg = PagerankConfig(tolerance=1e-13, max_iterations=500)
        w = spec.window(0)
        src, dst = events.edges_between(w.t_start, w.t_end)
        g = build_csr_from_edges(src, dst, events.n_vertices)
        active = np.zeros(events.n_vertices, dtype=bool)
        active[src] = True
        active[dst] = True
        fast = incremental_pagerank(g, cfg, active=active)
        ref = pagerank_csr_reference(g, cfg, active=active)
        assert np.allclose(fast.values, ref.values, atol=1e-9)

    def test_warm_start_same_fixed_point(self, events, spec):
        cfg = PagerankConfig(tolerance=1e-13, max_iterations=500)
        results = {}
        prev_vals, prev_act = None, None
        for w in list(spec)[:3]:
            src, dst = events.edges_between(w.t_start, w.t_end)
            g = build_csr_from_edges(src, dst, events.n_vertices)
            active = np.zeros(events.n_vertices, dtype=bool)
            active[src] = True
            active[dst] = True
            warm = incremental_pagerank(
                g, cfg, active=active,
                prev_values=prev_vals, prev_active=prev_act,
            )
            cold = incremental_pagerank(g, cfg, active=active)
            assert np.allclose(warm.values, cold.values, atol=1e-9)
            prev_vals, prev_act = warm.values, active

    def test_empty_graph(self):
        g = build_csr_from_edges([], [], 5)
        r = incremental_pagerank(g, active=np.zeros(5, dtype=bool))
        assert r.converged and np.all(r.values == 0)


class TestStreamingDriver:
    def test_runs_all_windows(self, events, spec):
        run = StreamingDriver(events, spec).run()
        assert run.n_windows == spec.n_windows
        assert run.model == "streaming"
        assert [w.window_index for w in run.windows] == list(
            range(spec.n_windows)
        )

    def test_phase_breakdown(self, events, spec):
        run = StreamingDriver(events, spec).run(store_values=False)
        for phase in ("update", "snapshot", "pagerank"):
            assert phase in run.timings.totals
        assert run.metadata["entries_inserted"] > 0

    def test_store_values_flag(self, events, spec):
        run = StreamingDriver(events, spec).run(store_values=False)
        assert all(w.values is None for w in run.windows)
        with pytest.raises(ValidationError):
            run.values_matrix()
