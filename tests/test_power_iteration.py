"""The single-vector power iteration shared by the SpMV, weighted and PB
kernels: kernels keyed into one workspace do not corrupt each other,
non-convergence and bad initial vectors report the same messages from
every kernel, and the kernels record their propagate time."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.pagerank import (
    Workspace,
    WorkStats,
    pagerank_window,
    pagerank_window_pb,
    pagerank_window_weighted,
    pagerank_windows_spmm,
)
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

    def test_merge_accumulates(self):
        a = WorkStats(iterations=2, propagate_seconds=1.0)
        b = WorkStats(iterations=3, propagate_seconds=0.5)
        a.merge(b)
        assert a.iterations == 5
        assert a.propagate_seconds == 1.5
