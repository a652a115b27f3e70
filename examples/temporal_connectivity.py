"""Beyond PageRank: other analyses on the same temporal representation.

The paper (Section 3.1) notes the sliding-window temporal graph "could be
analyzed in various ways ... using other kernels like closeness and
betweenness centrality, connecting component, k-core".  This example runs
four kernels over the same windows of the synthetic stackoverflow profile
— connected components, k-core degeneracy, degree centrality and Katz
centrality — through the generic postmortem kernel driver, and prints how
the network's structure consolidates as the site grows.

Run:  python examples/temporal_connectivity.py
"""

from __future__ import annotations

import numpy as np

from repro import WindowSpec
from repro.datasets import get_profile
from repro.kernels import (
    TemporalKernelDriver,
    connected_components,
    degree_centrality,
    max_core,
)
from repro.programs.katz import KatzProgram
from repro.reporting import format_table


def main() -> None:
    events = get_profile("stackoverflow").generate(scale=0.25)
    spec = WindowSpec.covering_days(events, 180, 86_400 * 60)
    print(
        f"instance: {len(events)} events, {spec.n_windows} windows of "
        f"180 days\n"
    )

    driver = TemporalKernelDriver(events, spec, n_multiwindows=6)

    comps = driver.run(connected_components)
    cores = driver.run(max_core, name="degeneracy")
    katz = driver.run(KatzProgram().solve_window, name="katz")
    degrees = driver.run(
        lambda v: degree_centrality(v, "total", normalized=False),
        name="degree",
    )

    rows = []
    for i in range(0, spec.n_windows, max(1, spec.n_windows // 12)):
        c = comps.windows[i]
        comp = c.value
        deg = degrees.windows[i].value
        k = katz.windows[i].value.values  # solve_window returns a PagerankResult
        top_katz = int(np.argmax(k)) if k.sum() else -1
        rows.append(
            [
                i,
                c.n_active_vertices,
                c.n_active_edges,
                comp.n_components,
                round(comp.giant_fraction(), 2),
                cores.windows[i].value,
                round(float(deg.max()), 0),
                f"v{top_katz}",
            ]
        )
    print(
        format_table(
            [
                "window",
                "|V|",
                "|E|",
                "components",
                "giant frac",
                "max core",
                "max degree",
                "top Katz",
            ],
            rows,
            title="Structural consolidation over time (stackoverflow profile)",
        )
    )

    giant = comps.series(lambda c: c.giant_fraction())
    degeneracy = cores.series(float)
    print(
        f"\ngiant-component fraction: {giant[0]:.2f} -> {giant[-1]:.2f}"
        f"   degeneracy: {degeneracy[0]:.0f} -> {degeneracy[-1]:.0f}"
    )
    print(
        "-> as the event rate grows, the graph coalesces into one giant "
        "component and densifies"
        if giant[-1] > giant[0]
        else "-> no consolidation in this draw"
    )


if __name__ == "__main__":
    main()
