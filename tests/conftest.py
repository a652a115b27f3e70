"""Shared fixtures: small deterministic event sets and solver configs."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.events import TemporalEventSet, WindowSpec
from repro.graph import TemporalAdjacency
from repro.kernels.katz import KatzConfig
from repro.pagerank import PagerankConfig
from repro.sanitize import enable_sanitizers, sanitizers_enabled


@pytest.fixture(scope="session", autouse=True)
def _sanitizer_mode():
    """Run the whole suite under runtime sanitizers when asked.

    ``REPRO_SANITIZE=1 pytest`` turns on boundary freezing and lock-order
    assertions (see :mod:`repro.sanitize`) for every test; the seed suite
    is required to stay green in that mode.  The env var is also honored
    by ``repro.sanitize`` at import time — this fixture just makes the
    contract explicit and covers reimport orderings.
    """
    if os.environ.get("REPRO_SANITIZE", "").strip().lower() in {
        "1", "true", "yes", "on"
    }:
        enable_sanitizers()
        assert sanitizers_enabled()
    yield


def random_events(
    n_vertices: int = 40,
    n_events: int = 400,
    t_max: int = 10_000,
    seed: int = 0,
    allow_self_loops: bool = False,
) -> TemporalEventSet:
    """A reproducible random event set for unit tests."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, n_events)
    dst = rng.integers(0, n_vertices, n_events)
    if not allow_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    time = np.sort(rng.integers(0, t_max, src.size))
    return TemporalEventSet(src, dst, time, n_vertices=n_vertices)


def katz_direct(view, config: KatzConfig = KatzConfig()) -> np.ndarray:
    """Katz centrality of one window by a direct sparse solve — the
    oracle for the iterative Katz solver.

    Solves ``(I - a A^T) x = b 1_active`` over the window's active
    deduplicated in-edges with ``scipy.sparse.linalg.spsolve`` and
    normalizes to unit L1 mass.  The attenuation clamp below ``0.9 /
    max degree`` is recomputed here from the edge list.
    """
    from scipy.sparse import csc_matrix, identity
    from scipy.sparse.linalg import spsolve

    n = view.adjacency.n_vertices
    active = view.active_vertices_mask
    n_active = int(active.sum())
    if n_active == 0:
        return np.zeros(n)
    in_csr = view.adjacency.in_csr
    dst = in_csr.row_ids()[view.in_dedup]
    src = in_csr.col[view.in_dedup]
    a = config.attenuation
    if config.auto_clamp and src.size:
        dmax = max(np.bincount(dst).max(), np.bincount(src).max())
        a = min(a, 0.9 / dmax)
    a_t = csc_matrix((np.ones(src.size), (dst, src)), shape=(n, n))
    b = np.where(active, config.base / n_active, 0.0)
    x = spsolve((identity(n, format="csc") - a * a_t).tocsc(), b)
    return x / x.sum()


@pytest.fixture
def events():
    return random_events()


@pytest.fixture
def small_events():
    return random_events(n_vertices=12, n_events=60, t_max=1_000, seed=3)


@pytest.fixture
def spec(events):
    return WindowSpec.covering(events, delta=3_000, sw=1_000)


@pytest.fixture
def adjacency(events):
    return TemporalAdjacency.from_events(events)


@pytest.fixture
def config():
    """Tight-tolerance config so cross-implementation comparisons are
    meaningful."""
    return PagerankConfig(tolerance=1e-12, max_iterations=300)


@pytest.fixture
def paper_example_events():
    """The exact 14-event temporal edge list of the paper's Figure 2a,
    with dates mapped to day numbers (day 0 = 2021-06-01).

    Vertices are 1..7 in the paper; kept as-is (vertex 0 unused).
    """
    rows = [
        (1, 2, 20),   # 06/21/2021
        (3, 5, 24),   # 06/25/2021
        (4, 6, 40),   # 07/11/2021
        (2, 3, 61),   # 08/01/2021
        (2, 4, 71),   # 08/11/2021
        (5, 6, 104),  # 09/13/2021
        (2, 7, 123),  # 10/02/2021
        (4, 7, 126),  # 10/05/2021
        (5, 7, 127),  # 10/06/2021
        (6, 7, 130),  # 10/09/2021
        (1, 2, 157),  # 11/05/2021
        (1, 3, 158),  # 11/06/2021
        (2, 5, 161),  # 11/09/2021
        (3, 5, 164),  # 11/12/2021
    ]
    src = [r[0] for r in rows]
    dst = [r[1] for r in rows]
    t = [r[2] for r in rows]
    return TemporalEventSet(src, dst, t, n_vertices=8)
