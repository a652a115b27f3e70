"""Katz centrality parameters, attenuation clamp and postmortem warm start.

Katz centrality solves  x = a * A^T x + b  (attenuation ``a`` below the
inverse spectral radius, uniform base ``b``), i.e. the same
gather-over-in-edges iteration as PageRank without the degree
normalization.  Nathan & Bader's streaming Katz (cited in the paper's
Section 3.2) incrementally updates it; here we provide the *postmortem*
version: :class:`repro.programs.katz.KatzProgram` solves it on PageRank's
power iteration, and :func:`katz_partial_init` warm-starts consecutive
windows, mirroring the paper's PageRank treatment (Section 4.2) on a
second analysis kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.graph.temporal_csr import WindowView

__all__ = ["KatzConfig", "katz_partial_init"]


@dataclass(frozen=True)
class KatzConfig:
    """Katz solver parameters.

    ``attenuation`` must stay below 1/λ_max for convergence; the classic
    safe default for sparse window graphs is a small constant, and the
    kernel additionally caps the contribution per iteration via the
    max-degree bound when ``auto_clamp`` is set.
    """

    attenuation: float = 0.05
    base: float = 1.0
    tolerance: float = 1e-9
    max_iterations: int = 200
    auto_clamp: bool = True
    strict: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.attenuation < 1.0):
            raise ValidationError("attenuation must be in (0, 1)")
        if self.base <= 0:
            raise ValidationError("base must be > 0")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be > 0")
        if self.max_iterations <= 0:
            raise ValidationError("max_iterations must be > 0")


def katz_attenuation(
    config: KatzConfig, in_degrees: np.ndarray, out_degrees: np.ndarray
) -> float:
    """Clamp attenuation below 1/max_degree (a cheap spectral-radius
    upper bound) so the fixed point exists for every window."""
    a = config.attenuation
    if config.auto_clamp:
        dmax = int(max(in_degrees.max(initial=0), out_degrees.max(initial=0)))
        if dmax > 0:
            a = min(a, 0.9 / dmax)
    return a


def katz_warm_start(
    active: np.ndarray, prev_active: np.ndarray, prev_values: np.ndarray
) -> np.ndarray:
    """Eq. 4-style warm start over activity masks: previous scores on
    shared vertices, uniform mass on new vertices, renormalized to 1."""
    n_cur = int(active.sum())
    if n_cur == 0:
        return np.zeros(active.size, dtype=np.float64)
    shared = active & prev_active
    shared_mass = float(prev_values[shared].sum())
    x = np.zeros(active.size, dtype=np.float64)
    if shared.any() and shared_mass > 0:
        n_shared = int(shared.sum())
        x[shared] = prev_values[shared] * (n_shared / n_cur) / shared_mass
        x[active & ~prev_active] = 1.0 / n_cur
    else:
        x[active] = 1.0 / n_cur
    return x


def katz_partial_init(
    view: WindowView,
    prev_view: WindowView,
    prev_values: np.ndarray,
) -> np.ndarray:
    """:func:`katz_warm_start` from the previous window's view."""
    prev_values = np.asarray(prev_values, dtype=np.float64)
    if prev_values.shape != (view.adjacency.n_vertices,):
        raise ValidationError("prev_values must be a per-vertex vector")
    return katz_warm_start(
        view.active_vertices_mask, prev_view.active_vertices_mask,
        prev_values,
    )
