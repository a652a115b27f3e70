"""Pipeline benchmark: events -> .tcsr -> postmortem PageRank -> rank
store -> served queries, on ``wiki-talk-xl`` at 3.0M events.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pm-spmm-wide --seed 1 \
        --seconds 18 --trace 0

Workloads: ``pm-spmm-wide``, ``pipeline-narrow-shared``, ``serve-zipf``
(see ``perfbench/workloads.py``).  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the end-to-end metrics, measured with tracing off —
  ``setup_s`` (median of several complete set-ups), ``run_s`` (median
  wall time of a unit of timed work; units repeat until ``--seconds`` of
  timed work), ``peak_rss_mb`` (peak resident memory of the process tree
  during the timed units, shared-executor workers and shard replicas
  included).
* ``--trace 1``: the per-layer metrics of one traced unit, next to one
  untraced unit whose ``run_s`` gives the tracing overhead; on
  ``serve-zipf`` they include the HTTP latencies ``query_p50_ms`` and
  ``query_p99_ms``.

Outputs are checked outside the timed phase; any failed operation or
check makes the command exit 1.  Work files live under
``.perfbench_work/`` in the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: complete set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(wl, work: Path, seconds: float):
    from perfbench import workloads
    from statistics import median

    from perfbench.measure import TreeRssSampler

    check = workloads.Check()
    setups, state = [], None
    for k in range(SETUP_REPEATS):
        directory = workloads.fresh_dir(str(work), f"setup{k}")
        workloads.settle()
        t0 = time.perf_counter()
        new_state = wl.setup(directory)
        setups.append(time.perf_counter() - t0)
        if state is not None:
            wl.teardown(state)
            shutil.rmtree(state["dir"], ignore_errors=True)
        state = new_state
    try:
        if isinstance(wl, workloads.ServeZipf):
            wl.check_setup(state, check)
        run_s, peaks, more = [], [], True
        while more:
            outcome = None  # the last unit's output must not stay resident
            wl.prepare(state)
            with TreeRssSampler(wl.measured_pid(state),
                                wl.rss_interval) as rss:
                t0 = time.perf_counter()
                outcome = wl.unit(state)
                elapsed = time.perf_counter() - t0
            run_s.append(outcome.wall if outcome.wall else elapsed)
            peaks.append(rss.peak_mb)
            more = (len(run_s) < wl.min_units
                    or (wl.repeat and sum(run_s) < seconds))
            wl.check(state, outcome, check, oracle=not more)
    finally:
        wl.teardown(state)
    metrics = {
        "setup_s": (median(setups), "s"),
        "run_s": (median(run_s), "s"),
        "peak_rss_mb": (max(peaks), "MB"),
    }
    detail = {"setup_s": setups, "run_s": run_s, "peak_rss_mb": peaks}
    return check, metrics, detail


def per_layer(wl, work: Path, units: dict):
    import numpy as np

    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    check = workloads.Check()
    tracer = Tracer(str(work / "spool"))
    directory = workloads.fresh_dir(str(work), "setup0")
    layers.install(tracer)
    try:
        with tracer.span("bench.setup", "bench") as setup_root:
            state = wl.setup(directory)
    finally:
        tracer.unpatch()
    try:
        serving = isinstance(wl, workloads.ServeZipf)
        if serving:
            wl.check_setup(state, check)
        wl.prepare(state)
        t0 = time.perf_counter()
        plain = wl.unit(state)
        untraced_run_s = plain.wall or time.perf_counter() - t0
        wl.check(state, plain, check)
        http = [a[3] - a[2] for a in plain.answers]
        plain = None

        wl.prepare(state)
        before = layers.cluster_snapshot(state) if serving else None
        layers.install(tracer)
        try:
            with tracer.span("bench.unit", "bench") as root:
                outcome = wl.unit(state)
        finally:
            tracer.unpatch()
        wl.check(state, outcome, check)
        spans = tracer.collect()
        if serving:
            root = layers.client_spans(outcome, root, spans)

        extra, split = {}, None
        if serving:
            after = layers.cluster_snapshot(state)
            extra, split = layers.serving_metrics(wl, state, outcome,
                                                  before, after)
            # closed-loop HTTP latency over both units; reported, not
            # bounded (see perfbench/README.md, Host noise)
            http += [a[3] - a[2] for a in outcome.answers]
            extra["query_p50_ms"] = float(np.percentile(http, 50)) * 1e3
            extra["query_p99_ms"] = float(np.percentile(http, 99)) * 1e3
        tcsr = outcome.tcsr or state.get("tcsr") or (
            state["built"].tcsr if serving else None)
        metrics = layers.layer_metrics(spans, root, setup_root, outcome,
                                       tcsr, untraced_run_s, split)
    finally:
        wl.teardown(state)
    for key in layers.SERVING_KEYS:
        metrics[key] = extra.get(key, 0.0)
    return check, {k: (v, units[k]) for k, v in metrics.items()}, {}


def _units():
    """Units of the per-layer metrics, read from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _terminate(signum, frame):
    # run the cleanup in ``finally`` blocks: stop the serving process and
    # remove the work files
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, args.seconds)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        if args.trace:
            check, metrics, detail = per_layer(wl, work, _units())
        else:
            check, metrics, detail = end_to_end(wl, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    for message in check.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": detail}), file=sys.stderr)
    print(json.dumps({
        "correct": check.ok,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if check.ok else 1


if __name__ == "__main__":
    sys.exit(main())
