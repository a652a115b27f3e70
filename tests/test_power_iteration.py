"""The power iteration shared by every PageRank kernel and Katz: SpMM is
SpMV run over k columns, bitwise per column; kernels keyed into one
workspace do not corrupt each other; non-convergence and bad initial
vectors report the same messages from every kernel, batched ones
included; and every kernel records its work and propagate time."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.events import Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.kernels import KatzConfig
from repro.pagerank import (
    Workspace,
    WorkStats,
    pagerank_window,
    pagerank_window_pb,
    pagerank_window_weighted,
    pagerank_windows_spmm,
)
from repro.programs.katz import KatzProgram
from tests.conftest import random_events
from tests.test_edge_compaction import CFG, make_view

SINGLE_KERNELS = {
    "spmv": pagerank_window,
    "weighted": pagerank_window_weighted,
    "pb": pagerank_window_pb,
}


def test_kernels_share_one_workspace():
    """Every kernel keyed into one workspace, interleaved and repeated,
    must not corrupt another's pooled scratch."""
    view = make_view(seed=47)
    expected = {name: k(view, CFG).values
                for name, k in SINGLE_KERNELS.items()}
    expected["spmm"] = pagerank_windows_spmm([view] * 2, CFG).values
    ws = Workspace()
    for _ in range(2):
        for name, kernel in SINGLE_KERNELS.items():
            r = kernel(view, CFG, workspace=ws)
            assert np.array_equal(r.values, expected[name]), name
        r = pagerank_windows_spmm([view] * 2, CFG, workspace=ws)
        assert np.array_equal(r.values, expected["spmm"])


def batch_views(seed=5):
    """Every window of one graph plus an empty one: the columns converge
    at different iterations."""
    events = random_events(n_vertices=50, n_events=600, seed=seed)
    adj = TemporalAdjacency.from_events(events)
    spec = WindowSpec.covering(events, delta=2_500, sw=900)
    empty = Window(spec.n_windows, 10**9, 10**9 + 1)
    return [adj.window_view(w) for w in list(spec) + [empty]]


def start_matrix(views, seed=0):
    """Random positive unit-mass starts on each window's active vertices
    (an all-zero column for an empty window)."""
    rng = np.random.default_rng(seed)
    X0 = rng.random((views[0].adjacency.n_vertices, len(views)))
    for j, v in enumerate(views):
        X0[~v.active_vertices_mask, j] = 0.0
        if X0[:, j].sum():
            X0[:, j] /= X0[:, j].sum()
    return X0


class TestSpmvSpmmBitwise:
    """SpMV is SpMM's k=1 case: each SpMM column equals SpMV on its
    window — values, iterations, residual and converged flag."""

    @pytest.mark.parametrize("path", ["masked", "compacted"])
    @pytest.mark.parametrize("pooled", [False, True], ids=["owned", "ws"])
    @pytest.mark.parametrize("tolerance", [1e-8, 1e-12])
    def test_columns_equal_spmv(self, path, pooled, tolerance):
        cfg = replace(CFG, edge_path=path, tolerance=tolerance)
        views = batch_views()
        X0 = start_matrix(views)
        ws = Workspace() if pooled else None
        batch = pagerank_windows_spmm(views, cfg, x0=X0, workspace=ws)
        assert len(set(batch.iterations_per_window.tolist())) > 2
        assert views[-1].n_active_vertices == 0
        for j, view in enumerate(views):
            single = pagerank_window(view, cfg, x0=X0[:, j], workspace=ws)
            assert np.array_equal(batch.values[:, j], single.values), j
            assert batch.iterations_per_window[j] == single.iterations, j
            assert batch.residuals[j] == single.residual, j
            assert batch.converged[j] == single.converged, j

    @pytest.mark.parametrize("path", ["masked", "compacted"])
    def test_katz_batch_columns_equal_solve_window(self, path):
        program = KatzProgram(
            config=KatzConfig(tolerance=1e-11, max_iterations=400),
            routing=replace(CFG, edge_path=path),
        )
        views = batch_views(seed=9)
        X0 = np.stack([program.init_window(v) for v in views], axis=1)
        batch = program.solve_batch(views, X0, workspace=Workspace())
        for j, view in enumerate(views):
            single = program.solve_window(view, X0[:, j])
            assert np.array_equal(batch.values[:, j], single.values), j
            assert batch.iterations_per_window[j] == single.iterations, j
            assert batch.residuals[j] == single.residual, j


class TestSharedLoopMessages:
    STRICT = replace(CFG, tolerance=1e-300, max_iterations=2, strict=True)

    @pytest.mark.parametrize("kernel", sorted(SINGLE_KERNELS))
    def test_strict_names_window_and_residual(self, kernel):
        view = make_view(seed=31, window=2)
        with pytest.raises(ConvergenceError) as info:
            SINGLE_KERNELS[kernel](view, self.STRICT)
        message = str(info.value)
        assert f"window {view.window.index} " in message
        assert "2 iterations" in message
        assert "residual" in message

    def test_spmm_strict_names_window_and_residual(self):
        views = batch_views()[2:4]
        with pytest.raises(ConvergenceError) as info:
            pagerank_windows_spmm(views, self.STRICT)
        message = str(info.value)
        for view in views:
            assert f"window {view.window.index} " in message
        assert "2 iterations" in message
        assert "residual" in message

    @pytest.mark.parametrize("batched", [False, True], ids=["window", "batch"])
    def test_katz_strict_names_window_and_residual(self, batched):
        program = KatzProgram(config=KatzConfig(
            tolerance=1e-300, max_iterations=2, strict=True,
        ))
        view = make_view(seed=31, window=2)
        with pytest.raises(ConvergenceError) as info:
            if batched:
                program.solve_batch([view], program.init_window(view)[:, None])
            else:
                program.solve_window(view)
        message = str(info.value)
        assert f"window {view.window.index} " in message
        assert "2 iterations" in message
        assert "residual" in message

    @pytest.mark.parametrize("kernel", sorted(SINGLE_KERNELS))
    def test_bad_x0_reports_shape(self, kernel):
        view = make_view(seed=31)
        with pytest.raises(ValidationError, match=r"got \(3,\)"):
            SINGLE_KERNELS[kernel](view, CFG, x0=np.ones(3))


class TestWorkStats:
    def test_kernels_record_propagate_seconds(self):
        view = make_view(seed=59)
        for name, kernel in SINGLE_KERNELS.items():
            assert kernel(view, CFG).work.propagate_seconds > 0.0, name
        batch = pagerank_windows_spmm([view] * 2, CFG)
        assert batch.work.propagate_seconds > 0.0
        program = KatzProgram()
        X0 = np.stack([program.init_window(view)] * 2, axis=1)
        katz = program.solve_batch([view] * 2, X0)
        assert katz.work.propagate_seconds > 0.0

    @pytest.mark.parametrize("kernel", ["spmm", "katz"])
    def test_batches_count_active_edges_per_live_column(self, kernel):
        views = batch_views()
        if kernel == "spmm":
            batch = pagerank_windows_spmm(views, CFG)
        else:
            program = KatzProgram()
            X0 = np.stack([program.init_window(v) for v in views], axis=1)
            batch = program.solve_batch(views, X0)
        # a column contributes its active edges and vertices on every
        # iteration it is live
        iterations = batch.iterations_per_window
        edges = np.array([v.n_active_edges for v in views])
        vertices = np.array([v.n_active_vertices for v in views])
        assert batch.work.active_edge_traversals == int(iterations @ edges)
        assert batch.work.vertex_ops == int(iterations @ vertices)
        assert batch.work.iterations == int(iterations.max())

    def test_merge_accumulates(self):
        a = WorkStats(iterations=2, propagate_seconds=1.0)
        b = WorkStats(iterations=3, propagate_seconds=0.5)
        a.merge(b)
        assert a.iterations == 5
        assert a.propagate_seconds == 1.5
