"""Tests for the additional temporal analysis kernels."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.kernels import (
    KatzConfig,
    TemporalKernelDriver,
    connected_components,
    core_numbers,
    degree_centrality,
    katz_partial_init,
    max_core,
)
from repro.programs.katz import KatzProgram
from tests.conftest import katz_direct, random_events


def solve_katz(view, config=KatzConfig(), x0=None):
    return KatzProgram(config=config).solve_window(view, x0)


@pytest.fixture
def view(adjacency, spec):
    return adjacency.window_view(spec.window(1))


class TestDegreeCentrality:
    def test_modes_sum(self, view):
        d_in = degree_centrality(view, "in", normalized=False)
        d_out = degree_centrality(view, "out", normalized=False)
        d_tot = degree_centrality(view, "total", normalized=False)
        assert np.allclose(d_tot, d_in + d_out)

    def test_matches_compact_graph(self, view):
        g = view.compact_graph()
        d_out = degree_centrality(view, "out", normalized=False)
        assert np.array_equal(d_out, g.out_degrees().astype(float))

    def test_normalization(self, view):
        raw = degree_centrality(view, "total", normalized=False)
        norm = degree_centrality(view, "total", normalized=True)
        denom = max(view.n_active_vertices - 1, 1)
        assert np.allclose(norm, raw / denom)

    def test_inactive_zero(self, view):
        d = degree_centrality(view)
        assert np.all(d[~view.active_vertices_mask] == 0)

    def test_bad_mode(self, view):
        with pytest.raises(ValidationError):
            degree_centrality(view, "between")


class TestConnectedComponents:
    def test_matches_scipy(self, adjacency, spec):
        sp = pytest.importorskip("scipy.sparse.csgraph")
        for w in spec:
            view = adjacency.window_view(w)
            got = connected_components(view)
            g = view.compact_graph().to_scipy()
            n_ref, labels_ref = sp.connected_components(
                g + g.T, directed=False
            )
            active = view.active_vertices_mask
            # compare only over active vertices (scipy labels isolated
            # inactive vertices as singletons)
            ref_active = labels_ref[active]
            got_active = got.labels[active]
            # same partition: labels must be a bijection
            pairs = set(zip(got_active.tolist(), ref_active.tolist()))
            assert len(pairs) == got.n_components
            assert got.n_components == len(set(ref_active.tolist()))

    def test_labels_inactive_minus_one(self, view):
        got = connected_components(view)
        assert np.all(got.labels[~view.active_vertices_mask] == -1)

    def test_sizes_and_giant(self, view):
        got = connected_components(view)
        sizes = got.sizes()
        assert sizes.sum() == view.n_active_vertices
        assert 0 < got.giant_fraction() <= 1.0

    def test_two_triangles(self):
        from repro.events import TemporalEventSet

        events = TemporalEventSet(
            [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [1, 2, 3, 4, 5, 6]
        )
        adj = TemporalAdjacency.from_events(events)
        got = connected_components(adj.window_view(Window(0, 0, 10)))
        assert got.n_components == 2
        assert got.labels[0] == got.labels[1] == got.labels[2]
        assert got.labels[3] == got.labels[4] == got.labels[5]
        assert got.labels[0] != got.labels[3]


class TestKCore:
    def test_matches_networkx(self, adjacency, spec):
        nx = pytest.importorskip("networkx")
        view = adjacency.window_view(spec.window(2))
        got = core_numbers(view)
        g = nx.Graph()
        compact = view.compact_graph()
        src, dst = compact.edges()
        g.add_edges_from(
            (int(u), int(v)) for u, v in zip(src, dst) if u != v
        )
        ref = nx.core_number(g)
        for v, k in ref.items():
            assert got[v] == k, v

    def test_clique_core(self):
        from repro.events import TemporalEventSet

        # K4: everyone has core number 3
        src, dst, t = [], [], []
        for i in range(4):
            for j in range(4):
                if i != j:
                    src.append(i)
                    dst.append(j)
                    t.append(len(t))
        events = TemporalEventSet(src, dst, t)
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 100))
        assert core_numbers(view).tolist() == [3, 3, 3, 3]
        assert max_core(view) == 3

    def test_path_core_one(self):
        from repro.events import TemporalEventSet

        events = TemporalEventSet([0, 1, 2], [1, 2, 3], [1, 2, 3])
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 10))
        assert core_numbers(view).tolist() == [1, 1, 1, 1]

    def test_empty_window(self, adjacency):
        view = adjacency.window_view(Window(0, 10**9, 10**9 + 1))
        assert max_core(view) == 0


class TestKatz:
    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        events = random_events(n_vertices=25, n_events=250, seed=45)
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 10_000))
        cfg = KatzConfig(attenuation=0.05, tolerance=1e-12,
                         max_iterations=1000, auto_clamp=False)
        ours = solve_katz(view, cfg)
        assert np.allclose(ours.values, katz_direct(view, cfg), atol=1e-10)

        g = nx.DiGraph()
        compact = view.compact_graph()
        src, dst = compact.edges()
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        ref = nx.katz_centrality(
            g, alpha=0.05, beta=1.0, tol=1e-14, max_iter=5000,
            normalized=False,
        )
        # compare rankings after normalizing both to unit L1 mass
        ref_vec = np.zeros(events.n_vertices)
        for v, s in ref.items():
            ref_vec[v] = s
        ref_vec /= ref_vec.sum()
        active = view.active_vertices_mask
        assert np.allclose(ours.values[active], ref_vec[active], atol=1e-6)

    def test_converges_and_positive(self, adjacency, spec):
        for w in spec:
            view = adjacency.window_view(w)
            r = solve_katz(view)
            assert r.converged
            assert np.allclose(r.values, katz_direct(view), atol=1e-8)
            active = view.active_vertices_mask
            assert np.all(r.values[active] > 0)
            assert np.all(r.values[~active] == 0)
            if view.n_active_vertices:
                assert r.values.sum() == pytest.approx(1.0, abs=1e-8)

    def test_auto_clamp_guarantees_convergence(self, adjacency, spec):
        cfg = KatzConfig(attenuation=0.9, auto_clamp=True,
                         max_iterations=500)
        view = adjacency.window_view(spec.window(0))
        r = solve_katz(view, cfg)
        assert r.converged

    def test_warm_start_helps_or_equal(self, adjacency, spec):
        cfg = KatzConfig(tolerance=1e-11, max_iterations=500)
        v0 = adjacency.window_view(spec.window(0))
        v1 = adjacency.window_view(spec.window(1))
        prev = solve_katz(v0, cfg)
        x0 = katz_partial_init(v1, v0, prev.values)
        warm = solve_katz(v1, cfg, x0=x0)
        cold = solve_katz(v1, cfg)
        assert np.allclose(warm.values, cold.values, atol=1e-8)
        assert warm.iterations <= cold.iterations + 1

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            KatzConfig(attenuation=0.0)
        with pytest.raises(ValidationError):
            KatzConfig(base=0.0)


class TestTemporalKernelDriver:
    def test_runs_all_windows(self, events, spec):
        driver = TemporalKernelDriver(events, spec, n_multiwindows=3)
        result = driver.run(connected_components)
        assert len(result.windows) == spec.n_windows
        series = result.series(lambda c: c.n_components)
        assert series.shape == (spec.n_windows,)
        assert np.all(series >= 0)

    def test_per_vertex_kernels_to_global(self, events, spec):
        driver = TemporalKernelDriver(
            events, spec, n_multiwindows=3, to_global=True
        )
        result = driver.run(core_numbers)
        for w in result.windows:
            assert w.value.shape == (events.n_vertices,)

    def test_matches_full_adjacency(self, events, spec, adjacency):
        driver = TemporalKernelDriver(events, spec, n_multiwindows=4)
        result = driver.run(max_core, name="max_core")
        for w in spec:
            direct = max_core(adjacency.window_view(w))
            assert result.windows[w.index].value == direct

    def test_validation(self, events, spec):
        with pytest.raises(ValidationError):
            TemporalKernelDriver(events, spec, n_multiwindows=0)
