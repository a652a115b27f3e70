"""Property-based tests for the PageRank kernels."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window
from repro.graph import TemporalAdjacency
from repro.pagerank import (
    PagerankConfig,
    full_initialization,
    pagerank_window,
    pagerank_windows_spmm,
    partial_initialization,
)


@st.composite
def window_instances(draw):
    n = draw(st.integers(min_value=2, max_value=15))
    m = draw(st.integers(min_value=1, max_value=60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    t = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m))
    events = TemporalEventSet(src, dst, t, n_vertices=n)
    adj = TemporalAdjacency.from_events(events)
    a = draw(st.integers(0, 100))
    b = draw(st.integers(0, 100))
    view = adj.window_view(Window(0, min(a, b), max(a, b)))
    return view


CFG = PagerankConfig(tolerance=1e-12, max_iterations=500)


@given(window_instances())
@settings(max_examples=120, deadline=None)
def test_mass_conservation(view):
    r = pagerank_window(view, CFG)
    if view.n_active_vertices:
        assert np.isclose(r.values.sum(), 1.0, atol=1e-8)
    else:
        assert r.values.sum() == 0.0


@given(window_instances())
@settings(max_examples=100, deadline=None)
def test_values_nonnegative_and_inactive_zero(view):
    r = pagerank_window(view, CFG)
    assert np.all(r.values >= 0)
    assert np.all(r.values[~view.active_vertices_mask] == 0)
    if view.n_active_vertices:
        # every active vertex keeps at least its teleport share
        floor = CFG.alpha / view.n_active_vertices
        active_vals = r.values[view.active_vertices_mask]
        assert np.all(active_vals >= floor * (1 - 1e-9))


@given(window_instances())
@settings(max_examples=75, deadline=None)
def test_fixed_point(view):
    """One more iteration from the converged vector moves < tolerance."""
    r = pagerank_window(view, CFG)
    if not r.converged or view.n_active_vertices == 0:
        return
    step = pagerank_window(
        view, PagerankConfig(tolerance=1e-15, max_iterations=1), x0=r.values
    )
    assert np.abs(step.values - r.values).sum() < 10 * CFG.tolerance


@given(window_instances())
@settings(max_examples=75, deadline=None)
def test_init_vectors_are_distributions(view):
    x = full_initialization(view)
    if view.n_active_vertices:
        assert np.isclose(x.sum(), 1.0)
        assert np.all(x >= 0)
    r = pagerank_window(view, CFG)
    warm = partial_initialization(view, view, r.values)
    if view.n_active_vertices:
        assert np.isclose(warm.sum(), 1.0, atol=1e-8)


@given(window_instances())
@settings(max_examples=50, deadline=None)
def test_self_partial_init_is_near_fixed_point(view):
    """Warm-starting a window from its own solution converges immediately
    (within a few iterations)."""
    r = pagerank_window(view, CFG)
    if not r.converged or view.n_active_vertices == 0:
        return
    warm = partial_initialization(view, view, r.values)
    again = pagerank_window(view, CFG, x0=warm)
    assert again.iterations <= max(3, r.iterations // 2)


@given(window_instances(), st.integers(2, 5))
@settings(max_examples=50, deadline=None)
def test_spmm_columns_equal_spmv(view, k):
    views = [view] * k
    batch = pagerank_windows_spmm(views, CFG)
    single = pagerank_window(view, CFG)
    for j in range(k):
        assert np.allclose(batch.values[:, j], single.values, atol=1e-8)


@given(window_instances(), st.sampled_from(["masked", "compacted"]))
@settings(max_examples=100, deadline=None)
def test_workspace_never_changes_values(view, edge_path):
    """A caller's pooled workspace is pure buffer reuse: the SpMV,
    weighted and PB kernels produce bitwise-identical results with it and
    without it (their own ephemeral workspace), even when the pool was
    dirtied by a different window first."""
    from repro.pagerank import (
        Workspace,
        pagerank_window_pb,
        pagerank_window_weighted,
    )

    cfg = replace(CFG, edge_path=edge_path)
    for kernel in (pagerank_window, pagerank_window_weighted,
                   pagerank_window_pb):
        owned = kernel(view, cfg)
        ws = Workspace()
        kernel(view, replace(cfg, max_iterations=1), workspace=ws)
        pooled = kernel(view, cfg, workspace=ws)
        assert np.array_equal(pooled.values, owned.values)
        assert pooled.iterations == owned.iterations
        assert pooled.converged == owned.converged


@given(window_instances())
@settings(max_examples=100, deadline=None)
def test_edge_path_never_changes_values(view):
    """``edge_path`` is a pure execution-strategy knob: masked, compacted
    and auto produce bitwise-identical ``PagerankResult.values``."""
    results = {
        path: pagerank_window(view, replace(CFG, edge_path=path))
        for path in ("masked", "compacted", "auto")
    }
    baseline = results["masked"]
    for path in ("compacted", "auto"):
        r = results[path]
        assert np.array_equal(r.values, baseline.values)
        assert r.iterations == baseline.iterations
        assert r.converged == baseline.converged
