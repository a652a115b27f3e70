"""Tests for batched Katz centrality (``KatzProgram.solve_batch``)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.kernels import KatzConfig
from repro.pagerank import PagerankConfig
from repro.programs.katz import KatzProgram
from tests.conftest import katz_direct, random_events

CFG = KatzConfig(tolerance=1e-12, max_iterations=500)
PROGRAM = KatzProgram(config=CFG)


@pytest.fixture(scope="module")
def setup():
    events = random_events(n_vertices=35, n_events=450, seed=77)
    spec = WindowSpec.covering(events, delta=3_000, sw=1_000)
    adj = TemporalAdjacency.from_events(events)
    return adj, spec


class TestKatzSpmm:
    def test_matches_single_kernel(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = PROGRAM.solve_batch(views)
        for j, v in enumerate(views):
            single = katz_direct(v, CFG)
            assert np.allclose(batch.values[:, j], single, atol=1e-8), j

    def test_columns_are_distributions(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = PROGRAM.solve_batch(views)
        for j, v in enumerate(views):
            if v.n_active_vertices:
                assert batch.values[:, j].sum() == pytest.approx(1.0,
                                                                 abs=1e-8)

    def test_empty_column(self, setup):
        adj, spec = setup
        views = [
            adj.window_view(spec.window(0)),
            adj.window_view(Window(1, 10**9, 10**9 + 1)),
        ]
        batch = PROGRAM.solve_batch(views)
        assert batch.converged[1]
        assert np.all(batch.values[:, 1] == 0)

    def test_shared_structure_work(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        masked = replace(PROGRAM, routing=PagerankConfig(edge_path="masked"))
        batch = masked.solve_batch(views)
        assert batch.work.edge_traversals == batch.work.iterations * adj.nnz

    def test_rejects_empty_and_mixed(self, setup):
        adj, spec = setup
        with pytest.raises(ValidationError):
            PROGRAM.solve_batch([])
        other = TemporalAdjacency.from_events(
            random_events(n_vertices=35, n_events=450, seed=77)
        )
        with pytest.raises(ValidationError):
            PROGRAM.solve_batch(
                [adj.window_view(spec.window(0)),
                 other.window_view(spec.window(1))],
            )

    def test_rejects_bad_x0(self, setup):
        adj, spec = setup
        with pytest.raises(ValidationError):
            PROGRAM.solve_batch(
                [adj.window_view(spec.window(0))], x0=np.zeros((2, 1)),
            )
