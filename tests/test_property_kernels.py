"""Property-based tests for the temporal analysis kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window
from repro.graph import TemporalAdjacency
from repro.kernels import (
    betweenness_centrality,
    closeness_centrality,
    connected_components,
    core_numbers,
    degree_centrality,
)
from repro.programs.katz import KatzProgram
from tests.conftest import katz_direct


@st.composite
def window_views(draw, max_vertices=14, max_events=60):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_events))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    t = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m))
    events = TemporalEventSet(src, dst, t, n_vertices=n)
    adj = TemporalAdjacency.from_events(events)
    return adj.window_view(Window(0, 0, 100))


@given(window_views())
@settings(max_examples=80, deadline=None)
def test_core_number_at_most_degree(view):
    """A vertex's core number never exceeds its undirected degree."""
    cores = core_numbers(view)
    und = degree_centrality(view, "total", normalized=False)
    # total in+out degree over-counts mutual edges, still an upper bound
    assert np.all(cores <= und + 1e-9)
    assert np.all(cores >= 0)


@given(window_views())
@settings(max_examples=80, deadline=None)
def test_kcore_subgraph_property(view):
    """Inside the k-core (vertices with core >= k), every vertex has >= k
    neighbors that are also in the k-core — the defining property."""
    cores = core_numbers(view)
    k = int(cores.max())
    if k == 0:
        return
    from repro.kernels.kcore import _undirected_window_csr

    g = _undirected_window_csr(view)
    members = np.flatnonzero(cores >= k)
    member_set = set(members.tolist())
    for v in members:
        nbrs = g.neighbors(int(v))
        inside = sum(1 for u in nbrs if int(u) in member_set)
        assert inside >= k, (v, k)


@given(window_views())
@settings(max_examples=80, deadline=None)
def test_components_are_equivalence_classes(view):
    got = connected_components(view)
    labels = got.labels
    # every active edge's endpoints share a label
    compact = view.compact_graph()
    src, dst = compact.edges()
    assert np.all(labels[src] == labels[dst])
    # labels are 0..n_components-1 on active vertices, -1 elsewhere
    active = view.active_vertices_mask
    if active.any():
        used = np.unique(labels[active])
        assert used.min() == 0
        assert used.max() == got.n_components - 1
    assert np.all(labels[~active] == -1)


@given(window_views())
@settings(max_examples=50, deadline=None)
def test_closeness_bounds(view):
    c = closeness_centrality(view)
    assert np.all(c >= 0)
    assert np.all(c <= 1.0 + 1e-9)
    assert np.all(c[~view.active_vertices_mask] == 0)


@given(window_views())
@settings(max_examples=40, deadline=None)
def test_betweenness_nonnegative_and_bounded(view):
    b = betweenness_centrality(view, normalized=True)
    assert np.all(b >= -1e-12)
    assert np.all(b <= 1.0 + 1e-9)


@given(window_views())
@settings(max_examples=40, deadline=None)
def test_katz_is_distribution(view):
    r = KatzProgram().solve_window(view)
    if view.n_active_vertices:
        assert np.isclose(r.values.sum(), 1.0, atol=1e-8)
        assert np.all(r.values >= 0)
        assert np.allclose(r.values, katz_direct(view), atol=1e-7)


@given(window_views())
@settings(max_examples=50, deadline=None)
def test_degree_centrality_consistent_with_structure(view):
    d_out = degree_centrality(view, "out", normalized=False)
    assert d_out.sum() == view.n_active_edges
    d_in = degree_centrality(view, "in", normalized=False)
    assert d_in.sum() == view.n_active_edges
