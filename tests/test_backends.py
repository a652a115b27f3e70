"""The kernels' one back end, the flat gather→reduce pull of
:func:`repro.utils.segments.gather_reduce`, across buffer modes: on every
structural regime, each kernel solved with owned buffers or with a pooled
:class:`Workspace` — cold, then warm — gives the same bits as a fresh
owned-buffer solve, and it composes with both edge paths."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.pagerank import (
    Workspace,
    pagerank_window,
    pagerank_window_pb,
    pagerank_window_weighted,
    pagerank_windows_spmm,
)
from tests.test_edge_compaction import CFG, _views_regimes


def _assert_same(result, base):
    assert np.array_equal(result.values, base.values)
    assert result.iterations == base.iterations
    assert result.converged == base.converged
    assert result.residual == base.residual


@pytest.mark.parametrize("use_workspace", [False, True], ids=["owned", "ws"])
@pytest.mark.parametrize(
    "name,view", _views_regimes(), ids=[n for n, _ in _views_regimes()]
)
class TestBackendParity:
    """Each solve runs twice under the given buffer mode (for ``ws`` the
    second solve reuses the now-warm workspace); both must match the
    fresh owned-buffer solve bitwise."""

    def _twice(self, kernel, view, use_workspace, cfg=CFG):
        ws = Workspace() if use_workspace else None
        return [kernel(view, cfg, workspace=ws) for _ in range(2)]

    def _check_single(self, kernel, view, use_workspace):
        base = kernel(view, CFG)
        for r in self._twice(kernel, view, use_workspace):
            _assert_same(r, base)

    def test_spmv(self, name, view, use_workspace):
        self._check_single(pagerank_window, view, use_workspace)

    def test_weighted(self, name, view, use_workspace):
        self._check_single(pagerank_window_weighted, view, use_workspace)

    def test_pb(self, name, view, use_workspace):
        self._check_single(pagerank_window_pb, view, use_workspace)

    def test_spmm(self, name, view, use_workspace):
        views = [view] * 3
        base = pagerank_windows_spmm(views, CFG)
        for r in self._twice(
            lambda v, cfg, workspace: pagerank_windows_spmm(
                views, cfg, workspace=workspace
            ),
            view,
            use_workspace,
        ):
            assert np.array_equal(r.values, base.values)
            assert np.array_equal(
                r.iterations_per_window, base.iterations_per_window
            )
            assert np.array_equal(r.converged, base.converged)

    def test_composes_with_edge_path(self, name, view, use_workspace):
        base = pagerank_window(view, CFG)
        for path in ("masked", "compacted"):
            cfg = replace(CFG, edge_path=path)
            for r in self._twice(pagerank_window, view, use_workspace, cfg):
                _assert_same(r, base)
