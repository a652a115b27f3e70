"""Vertex-program engine vs the legacy kernel-driver path.

The engine refactor rehomed every analytic onto the warm-start chain
solver (:func:`repro.programs.engine.solve_program_chain`) — the same
pooled-workspace, partial-initialization machinery the PageRank drivers
use.  This bench answers two questions for the non-PageRank programs:

* **Is it the same answer?**  ``--program kcore`` through the postmortem
  driver must match the generic kernel-driver path (``core_numbers`` per
  window) *exactly* — both peel the identical undirected simple window
  graph.  ``--program katz`` warm-starts each window from the previous
  one, while the kernel-driver path solves every window cold with
  ``KatzProgram.solve_window``; both stop at the solver tolerance, so the
  gate is a tight value tolerance on the normalized vectors, not bitwise
  identity.
* **What does the engine cost?**  Back-to-back same-machine wall-clock
  ratio of the engine path over the kernel-driver path, per analytic —
  pooled workspaces and warm-started Katz chains should keep the engine
  at or below the per-window kernel loop, and the ratio is guarded so
  engine overhead cannot silently grow.

Results are printed, persisted as text, and emitted as JSON
(``benchmarks/output/program_engine.json``); the committed baseline is
``benchmarks/BENCH_program_engine.json``.

Run:  pytest benchmarks/bench_program_engine.py -s
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks._common import BENCH_CONFIG, OUTPUT_DIR, emit, get_events, spec_for
from repro.kernels import core_numbers
from repro.kernels.katz import KatzConfig
from repro.models.postmortem import PostmortemDriver, PostmortemOptions
from repro.programs.adapter import TemporalKernelDriver
from repro.programs.katz import KatzProgram
from repro.reporting import format_table

PROFILE = "wiki-talk"
DELTA_DAYS = 90.0
SW_SECONDS = 259_200
N_MULTIWINDOWS = 6

#: one Katz parameterization for both paths; tight tolerance so the warm
#: and cold starts converge to the same fixed point
KATZ_CFG = KatzConfig(tolerance=1e-10, max_iterations=300)

#: allowed value divergence between the warm-started and cold Katz
#: fixed points (normalized vectors)
KATZ_ATOL = 5e-7

KATZ_PROGRAM = KatzProgram(config=KATZ_CFG, routing=BENCH_CONFIG)


def katz_values(view):
    return KATZ_PROGRAM.solve_window(view).values


def _engine_run(events, spec, program):
    driver = PostmortemDriver(
        events,
        spec,
        BENCH_CONFIG,
        PostmortemOptions(n_multiwindows=N_MULTIWINDOWS),
        program=program,
    )
    t0 = time.perf_counter()
    result = driver.run()
    elapsed = time.perf_counter() - t0
    return [w.values for w in result.windows], elapsed


def _kernel_run(events, spec, kernel):
    driver = TemporalKernelDriver(
        events, spec, N_MULTIWINDOWS, to_global=True
    )
    t0 = time.perf_counter()
    result = driver.run(kernel)
    elapsed = time.perf_counter() - t0
    return [w.value for w in result.windows], elapsed


def test_program_engine():
    events = get_events(PROFILE)
    spec = spec_for(events, DELTA_DAYS, SW_SECONDS)

    # -- k-core: identical peeling on both paths → exact match -----------
    eng_kcore, eng_kcore_s = _engine_run(events, spec, "kcore")
    ker_kcore, ker_kcore_s = _kernel_run(events, spec, core_numbers)
    kcore_exact = all(
        np.array_equal(a, b) for a, b in zip(eng_kcore, ker_kcore)
    )

    # -- Katz: warm-started chain vs cold windows → tight tolerance -----
    eng_katz, eng_katz_s = _engine_run(events, spec, KATZ_PROGRAM)
    ker_katz, ker_katz_s = _kernel_run(events, spec, katz_values)
    katz_diff = max(
        float(np.abs(a - b).max()) for a, b in zip(eng_katz, ker_katz)
    )
    katz_close = katz_diff <= KATZ_ATOL

    payload = {
        "profile": PROFILE,
        "n_windows": spec.n_windows,
        "kcore": {
            "engine_s": round(eng_kcore_s, 4),
            "kernel_s": round(ker_kcore_s, 4),
            "engine_over_kernel": round(eng_kcore_s / ker_kcore_s, 4),
            "match_exact": bool(kcore_exact),
        },
        "katz": {
            "engine_s": round(eng_katz_s, 4),
            "kernel_s": round(ker_katz_s, 4),
            "engine_over_kernel": round(eng_katz_s / ker_katz_s, 4),
            "max_abs_diff": katz_diff,
            "match_close": bool(katz_close),
        },
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "program_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        [
            "kcore",
            round(eng_kcore_s, 3),
            round(ker_kcore_s, 3),
            round(eng_kcore_s / ker_kcore_s, 2),
            "exact" if kcore_exact else "DIVERGED",
        ],
        [
            "katz",
            round(eng_katz_s, 3),
            round(ker_katz_s, 3),
            round(eng_katz_s / ker_katz_s, 2),
            f"<= {katz_diff:.2e}" if katz_close else f"DIVERGED {katz_diff:.2e}",
        ],
    ]
    text = format_table(
        ["program", "engine(s)", "kernel path(s)", "engine/kernel", "values"],
        rows,
        title=(
            f"program engine vs legacy kernel driver on {PROFILE} "
            f"({spec.n_windows} windows, Y={N_MULTIWINDOWS})"
        ),
    )
    emit("program_engine", text)

    assert kcore_exact
    assert katz_close, katz_diff
