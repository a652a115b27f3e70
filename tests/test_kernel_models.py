"""Tests for the generic three-model kernel runners, time-series
analytics, and run persistence."""

import numpy as np
import pytest

from repro.analysis.timeseries import (
    detect_change_points,
    rank_stability_series,
    rising_vertices,
    topk_churn_series,
)
from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.kernels import connected_components, max_core
from repro.models import PostmortemDriver
from repro.models.kernel_models import (
    adapt_view_kernel,
    offline_kernel_run,
    postmortem_kernel_run,
    streaming_kernel_run,
)
from repro.models.results_io import load_run, save_run
from repro.pagerank import PagerankConfig
from tests.conftest import random_events


def kcore_graph_kernel(graph, active):
    """Max core number from a (graph, active) pair — a model-agnostic
    kernel used across all three runners."""
    import numpy as np

    deg_out = graph.out_degrees()
    tr = graph.transpose()
    deg = deg_out + tr.out_degrees()
    # quick degeneracy via peeling on the symmetrized graph
    from repro.graph.csr import build_csr_from_edges

    src, dst = graph.edges()
    keep = src != dst
    und = build_csr_from_edges(
        np.concatenate([src[keep], dst[keep]]),
        np.concatenate([dst[keep], src[keep]]),
        graph.n_vertices,
        dedup=True,
    )
    degs = und.out_degrees().astype(int)
    alive = degs > 0
    k = 0
    while alive.any():
        k = max(k, int(degs[alive].min()))
        while True:
            shell = alive & (degs <= k)
            if not shell.any():
                break
            alive[shell] = False
            for v in np.flatnonzero(shell):
                for u in und.neighbors(int(v)):
                    if alive[u]:
                        degs[u] -= 1
    return k


@pytest.fixture(scope="module")
def instance():
    events = random_events(n_vertices=30, n_events=700, seed=101)
    spec = WindowSpec.covering(events, delta=3_000, sw=1_200)
    return events, spec


class TestThreeModelKernels:
    def test_all_models_same_series(self, instance):
        events, spec = instance
        off = offline_kernel_run(events, spec, kcore_graph_kernel)
        stream = streaming_kernel_run(events, spec, kcore_graph_kernel)
        pm = postmortem_kernel_run(events, spec, kcore_graph_kernel, 3)
        assert off.values == stream.values == pm.values
        assert len(off.values) == spec.n_windows

    def test_native_view_kernel_equivalent(self, instance):
        events, spec = instance
        pm_adapted = postmortem_kernel_run(
            events, spec, kcore_graph_kernel, 3
        )
        pm_native = postmortem_kernel_run(
            events, spec, kcore_graph_kernel, 3, view_kernel=max_core
        )
        assert pm_adapted.values == pm_native.values

    def test_adapter_name(self):
        adapted = adapt_view_kernel(kcore_graph_kernel)
        assert adapted.__name__ == "kcore_graph_kernel"

    def test_components_across_models(self, instance):
        events, spec = instance

        def n_comp(graph, active):
            import numpy as np
            # reuse the view-based kernel through a one-off adjacency
            # conversion is overkill; count via scipy for the reference
            from scipy.sparse.csgraph import connected_components as cc

            m = graph.to_scipy()
            n, labels = cc(m + m.T, directed=False)
            return int(len(set(labels[active].tolist())))

        off = offline_kernel_run(events, spec, n_comp)
        pm = postmortem_kernel_run(
            events,
            spec,
            n_comp,
            3,
            view_kernel=lambda v: connected_components(v).n_components,
        )
        assert off.values == pm.values

    def test_timings_present(self, instance):
        events, spec = instance
        off = offline_kernel_run(events, spec, kcore_graph_kernel)
        stream = streaming_kernel_run(events, spec, kcore_graph_kernel)
        assert "build" in off.timings.totals
        assert "snapshot" in stream.timings.totals
        assert off.total_time > 0


class TestTimeseries:
    def test_rank_stability_identical_windows(self):
        v = np.array([0.5, 0.3, 0.2])
        out = rank_stability_series([v, v, v], min_shared=2)
        assert np.allclose(out, 1.0)

    def test_rank_stability_nan_when_disjoint(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        out = rank_stability_series([a, b], min_shared=1)
        assert np.isnan(out[0])

    def test_churn(self):
        a = np.array([0.9, 0.8, 0.1, 0.0])
        b = np.array([0.1, 0.0, 0.9, 0.8])
        assert topk_churn_series([a, b], k=2)[0] == 1.0
        assert topk_churn_series([a, a], k=2)[0] == 0.0

    def test_rising(self):
        a = np.array([0.5, 0.5, 0.0])
        b = np.array([0.2, 0.5, 0.3])
        top = rising_vertices([a, b], 0, 1, top=1)
        assert top[0][0] == 2

    def test_rising_bounds(self):
        a = np.zeros(3)
        with pytest.raises(ValidationError):
            rising_vertices([a, a], 0, 5)

    def test_change_points(self):
        series = np.array([1.0, 1.1, 0.9, 1.0, 1.05, 1.0, 8.0, 1.0])
        flagged = detect_change_points(series, z_threshold=3.0, warmup=4)
        assert 6 in flagged.tolist()

    def test_change_points_validation(self):
        with pytest.raises(ValidationError):
            detect_change_points(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            detect_change_points(np.zeros(5), z_threshold=0)

    def test_needs_two_windows(self):
        with pytest.raises(ValidationError):
            rank_stability_series([np.zeros(3)])


class TestRunPersistence:
    def test_roundtrip(self, instance, tmp_path):
        events, spec = instance
        run = PostmortemDriver(
            events, spec, PagerankConfig(tolerance=1e-10)
        ).run()
        path = tmp_path / "run.npz"
        save_run(run, path)
        back = load_run(path)
        assert back.model == run.model
        assert back.n_windows == run.n_windows
        assert run.max_difference(back) == 0.0
        assert back.window(0).iterations == run.window(0).iterations

    def test_rejects_valueless_run(self, instance, tmp_path):
        events, spec = instance
        run = PostmortemDriver(
            events, spec, PagerankConfig()
        ).run(store_values=False)
        with pytest.raises(ValidationError):
            save_run(run, tmp_path / "x.npz")

    def test_rejects_bad_archive(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, values=np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            load_run(path)


class TestStatefulStreaming:
    def test_warm_started_katz_through_generic_runner(self, instance):
        import numpy as np

        from repro.models.kernel_models import streaming_kernel_run_stateful

        events, spec = instance

        calls = []

        def counting_kernel(graph, active, prev):
            calls.append(prev is not None)
            return int(graph.n_edges)

        run = streaming_kernel_run_stateful(events, spec, counting_kernel)
        assert len(run.values) == spec.n_windows
        # first call cold, all subsequent calls receive the previous value
        assert calls[0] is False
        assert all(calls[1:])

    def test_stateful_pagerank_matches_driver(self, instance):
        import numpy as np

        from repro.models.kernel_models import streaming_kernel_run_stateful
        from repro.pagerank import PagerankConfig
        from repro.streaming import StreamingDriver
        from repro.pagerank.incremental import incremental_pagerank

        events, spec = instance
        cfg = PagerankConfig(tolerance=1e-11, max_iterations=300)

        def pr_kernel(graph, active, prev):
            return incremental_pagerank(
                graph,
                cfg,
                active=active,
                prev_values=None if prev is None else prev.values,
            )

        run = streaming_kernel_run_stateful(events, spec, pr_kernel)
        ref = StreamingDriver(events, spec, cfg).run()
        for i, v in enumerate(run.values):
            assert np.allclose(
                v.values, ref.windows[i].values, atol=1e-7
            ), i
