"""The vertex-program layer (repro.programs).

Covers the registry, the three first-class programs, the callable
adapter, and the tentpole acceptance criterion: PageRank routed through
the engine is *bitwise-identical* to the historic postmortem loop across
kernels (spmv / spmm) × edge paths (masked / compacted) × weighted —
asserted against a hand-rolled reference chain that replays the
pre-engine driver's solve sequence.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.graph import TemporalAdjacency
from repro.graph.csr import build_csr_from_edges
from repro.graph.multiwindow import MultiWindowPartition
from repro.kernels.katz import KatzConfig
from repro.models.postmortem import PostmortemDriver, PostmortemOptions
from repro.pagerank import (
    PagerankConfig,
    Workspace,
    full_initialization,
    pagerank_window,
    partial_initialization,
)
from repro.pagerank.weighted import pagerank_window_weighted
from repro.pagerank.spmm import pagerank_windows_spmm
from repro.models.schedule import sequential_schedule, spmm_region_schedule
from repro.programs import (
    PROGRAMS,
    VertexProgram,
    make_program,
    resolve_program,
    validate_program_name,
)
from repro.programs.adapter import CallableProgram
from repro.programs.engine import solve_program_chain
from repro.programs.katz import KatzProgram
from repro.programs.kcore import KCoreProgram
from repro.runtime import DriverContext
from tests.conftest import katz_direct, random_events

VECTOR_LENGTH = 4
N_MULTIWINDOWS = 3


@pytest.fixture(scope="module")
def setup():
    events = random_events(n_vertices=50, n_events=900, seed=977)
    spec = WindowSpec.covering(events, delta=1_800, sw=750)
    return events, spec


def reference_chain(
    events,
    spec,
    cfg,
    *,
    kernel="spmv",
    weighted=False,
    partial_init=True,
):
    """The pre-engine postmortem solve sequence, hand-rolled.

    Replays exactly what the historic driver did per multi-window graph:
    one pooled workspace, eq. 4 warm starts along the chain, the region
    schedule for SpMM, the previous solve's iteration count as the
    edge-path hint.  The engine must match this bitwise.
    """
    solver = pagerank_window_weighted if weighted else pagerank_window
    out = np.zeros((spec.n_windows, events.n_vertices))
    partition = MultiWindowPartition(events, spec, N_MULTIWINDOWS)
    for graph in partition:
        if kernel == "spmm" and graph.n_windows > 1 and not weighted:
            batches = spmm_region_schedule(
                graph.first_window, graph.n_windows, VECTOR_LENGTH
            )
        else:
            batches = sequential_schedule(
                graph.first_window, graph.n_windows
            )
        workspace = Workspace()
        views = {}
        values = {}
        hint = None
        for batch in batches:
            bviews = []
            for w in batch.windows:
                if w not in views:
                    views[w] = graph.window_view(w, workspace=workspace)
                bviews.append(views[w])
            x0_cols = []
            for w, pred in zip(batch.windows, batch.predecessors):
                if partial_init and pred is not None and pred in values:
                    x0_cols.append(
                        partial_initialization(
                            views[w], views[pred], values[pred]
                        )
                    )
                else:
                    x0_cols.append(full_initialization(views[w]))
            if len(batch.windows) == 1:
                pr = solver(
                    bviews[0], cfg, x0=x0_cols[0], workspace=workspace,
                    iteration_hint=hint,
                )
                hint = pr.iterations
                values[batch.windows[0]] = pr.values
                out[batch.windows[0]] = graph.to_global(
                    pr.values, events.n_vertices
                )
            else:
                br = pagerank_windows_spmm(
                    bviews, cfg, x0=np.stack(x0_cols, axis=1),
                    workspace=workspace, iteration_hint=hint,
                )
                hint = int(br.iterations_per_window.max())
                for j, w in enumerate(batch.windows):
                    values[w] = br.values[:, j].copy()
                    out[w] = graph.to_global(values[w], events.n_vertices)
            keep = set(batch.windows)
            views = {w: v for w, v in views.items() if w in keep}
            values = {w: v for w, v in values.items() if w in keep}
    return out


class TestRegistry:
    def test_registered_names(self):
        assert PROGRAMS == ("pagerank", "katz", "kcore")
        for name in PROGRAMS:
            assert validate_program_name(name) == name
            assert make_program(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            validate_program_name("betweenness")
        with pytest.raises(ValidationError):
            make_program("betweenness")

    def test_context_validates_program(self):
        DriverContext(program="katz")
        with pytest.raises(ValidationError):
            DriverContext(program="betweenness")

    def test_weighted_only_for_pagerank(self):
        assert make_program("pagerank", weighted=True).weighted
        with pytest.raises(ValidationError):
            make_program("katz", weighted=True)
        with pytest.raises(ValidationError):
            resolve_program(KCoreProgram(), weighted=True)

    def test_resolve_normalizes(self):
        assert resolve_program(None).name == "pagerank"
        assert resolve_program("kcore").name == "kcore"
        program = KatzProgram()
        assert resolve_program(program) is program
        with pytest.raises(ValidationError):
            resolve_program(42)

    def test_programs_are_picklable(self):
        import pickle

        for name in PROGRAMS:
            program = make_program(name)
            clone = pickle.loads(pickle.dumps(program))
            assert clone.name == name

    def test_base_class_contract(self):
        base = VertexProgram()
        assert base.vertex_values
        view = None
        with pytest.raises(NotImplementedError):
            base.init_window(view)
        with pytest.raises(NotImplementedError):
            base.solve_window(view)
        with pytest.raises(NotImplementedError):
            base.solve_batch([view], None)
        with pytest.raises(NotImplementedError):
            base.solve_graph(None, None)


class TestEngineBitwiseGrid:
    """The tentpole acceptance criterion: PageRank through the engine is
    bitwise-identical to the historic driver loop, across kernels × edge
    paths × weighted."""

    @pytest.mark.parametrize("kernel", ["spmv", "spmm"])
    @pytest.mark.parametrize("edge_path", ["masked", "compacted"])
    def test_engine_matches_reference(self, setup, kernel, edge_path):
        events, spec = setup
        cfg = PagerankConfig(
            tolerance=1e-10,
            max_iterations=300,
            edge_path=edge_path,
        )
        run = PostmortemDriver(
            events,
            spec,
            cfg,
            PostmortemOptions(
                n_multiwindows=N_MULTIWINDOWS,
                kernel=kernel,
                vector_length=VECTOR_LENGTH,
            ),
        ).run()
        expected = reference_chain(events, spec, cfg, kernel=kernel)
        np.testing.assert_array_equal(run.values_matrix(), expected)

    @pytest.mark.parametrize("edge_path", ["masked", "compacted"])
    def test_weighted_engine_matches_reference(self, setup, edge_path):
        events, spec = setup
        cfg = PagerankConfig(
            tolerance=1e-10, max_iterations=300, edge_path=edge_path
        )
        run = PostmortemDriver(
            events,
            spec,
            cfg,
            PostmortemOptions(
                n_multiwindows=N_MULTIWINDOWS, weighted=True
            ),
        ).run()
        expected = reference_chain(events, spec, cfg, weighted=True)
        np.testing.assert_array_equal(run.values_matrix(), expected)

    def test_cold_chain_matches_reference(self, setup):
        events, spec = setup
        cfg = PagerankConfig(tolerance=1e-10, max_iterations=300)
        run = PostmortemDriver(
            events,
            spec,
            cfg,
            PostmortemOptions(
                n_multiwindows=N_MULTIWINDOWS, partial_init=False
            ),
        ).run()
        expected = reference_chain(
            events, spec, cfg, partial_init=False
        )
        np.testing.assert_array_equal(run.values_matrix(), expected)


class TestKatzProgram:
    def test_solve_window_matches_direct_solve(self, setup):
        """The iterative solve and an independent direct sparse solve
        agree on the normalized fixed point."""
        events, spec = setup
        adj = TemporalAdjacency.from_events(events)
        cfg = KatzConfig(tolerance=1e-12, max_iterations=500)
        program = KatzProgram(config=cfg)
        for i in range(min(spec.n_windows, 4)):
            view = adj.window_view(spec.window(i))
            ours = program.solve_window(view)
            direct = katz_direct(view, cfg)
            assert np.allclose(ours.values, direct, atol=1e-9), i

    def test_warm_start_converges_no_slower(self, setup):
        events, spec = setup
        adj = TemporalAdjacency.from_events(events)
        program = KatzProgram(config=KatzConfig(tolerance=1e-11))
        v0 = adj.window_view(spec.window(0))
        v1 = adj.window_view(spec.window(1))
        prev = program.solve_window(v0, program.init_window(v0))
        warm = program.solve_window(
            v1, program.warm_start(v1, v0, prev.values)
        )
        cold = program.solve_window(v1, program.init_window(v1))
        assert np.allclose(warm.values, cold.values, atol=1e-8)
        assert warm.iterations <= cold.iterations + 1

    def test_spmm_falls_back_for_weighted_like_programs(self, setup):
        """kcore has no batched kernel: kernel='spmm' must fall back to
        the sequential schedule, not crash, and match the spmv run."""
        events, spec = setup
        cfg = PagerankConfig()
        runs = {}
        for kernel in ("spmv", "spmm"):
            runs[kernel] = PostmortemDriver(
                events,
                spec,
                cfg,
                PostmortemOptions(
                    n_multiwindows=N_MULTIWINDOWS,
                    kernel=kernel,
                    vector_length=VECTOR_LENGTH,
                ),
                program="kcore",
            ).run()
        assert np.array_equal(
            runs["spmv"].values_matrix(), runs["spmm"].values_matrix()
        )


class TestKCoreProgram:
    def test_known_clique(self):
        # K4: every vertex has core number 3
        src, dst = [], []
        for i in range(4):
            for j in range(4):
                if i != j:
                    src.append(i)
                    dst.append(j)
        graph = build_csr_from_edges(
            np.array(src), np.array(dst), 4, dedup=True
        )
        program = KCoreProgram()
        active = np.ones(4, dtype=bool)
        pr = program.solve_graph(graph, active)
        assert pr.values.tolist() == [3.0, 3.0, 3.0, 3.0]
        assert pr.converged and pr.iterations == 0

    def test_not_iterative(self):
        program = KCoreProgram()
        assert not program.iterative
        assert not program.supports_batch
        assert program.vertex_values


class TestCallableProgram:
    def test_generic_values_ride_value_slot(self, setup):
        events, spec = setup
        partition = MultiWindowPartition(events, spec, N_MULTIWINDOWS)
        graph = partition[0]
        program = CallableProgram(lambda view: view.n_active_edges)
        assert not program.vertex_values
        results, tasks, _ = solve_program_chain(
            graph, 0, program, n_global_vertices=events.n_vertices
        )
        # generic programs emit no TaskRecords (nothing to simulate)
        assert tasks == []
        for w in graph.window_indices():
            wr = results[w]
            assert wr.values is None
            assert wr.value == wr.n_active_edges

    def test_to_global_scatter(self, setup):
        events, spec = setup
        partition = MultiWindowPartition(events, spec, N_MULTIWINDOWS)
        graph = partition[0]
        program = CallableProgram(
            lambda view: np.ones(
                view.adjacency.n_vertices, dtype=np.float64
            ),
            to_global_values=True,
        )
        results, _, _ = solve_program_chain(
            graph, 0, program, n_global_vertices=events.n_vertices
        )
        for w in graph.window_indices():
            assert results[w].value.shape == (events.n_vertices,)


class TestWeightedValidation:
    def test_weighted_rejects_non_pagerank_program(self, setup):
        events, spec = setup
        with pytest.raises(ValidationError):
            PostmortemDriver(
                events,
                spec,
                PagerankConfig(),
                PostmortemOptions(weighted=True),
                program="katz",
            )

    def test_streaming_delta_engine_is_pagerank_specific(self, setup):
        from repro.streaming.driver import StreamingDriver

        events, spec = setup
        with pytest.raises(ValidationError):
            StreamingDriver(
                events, spec, PagerankConfig(), engine="delta",
                program="kcore",
            )
