"""Where the traced run puts its spans, and the per-layer metrics.

Each entry of :data:`PATCHES` names a public function of one layer at
every binding its callers resolve, the span name it records, and the
layer that span's self time is billed to.  :func:`layer_metrics` turns a
traced unit's spans (plus the run's own counters: ``WorkStats``, the task
log, the shared-arena stats) into the ``per_layer`` metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
import urllib.request
from typing import Dict, List, Optional

from repro.graph import io as gio
from repro.graph import multiwindow
from repro.models import postmortem
from repro.parallel import shared_arena
from repro.programs import pagerank as pagerank_program
from repro.service.cluster import ShardCluster, traffic
from repro.service.engine import QueryEngine
from repro.service.store import RankStoreWriter

from perfbench import workloads
from perfbench.serving import N_SHARDS, closed_loop
from perfbench.tracer import (
    Span,
    Tracer,
    count_by_name,
    self_by_name,
    total_by_name,
    wall_attribution,
)

#: (owner, attribute, span name, layer, flush worker spool after the call)
PATCHES = [
    (gio, "build_tcsr", "io.build", "io", False),
    (gio, "open_events", "io.open", "io", False),
    (postmortem.PostmortemDriver, "run", "models.run", "models", False),
    (multiwindow, "build_compact_graph", "multiwindow.materialize",
     "multiwindow", False),
    (postmortem, "build_compact_graph", "multiwindow.materialize",
     "multiwindow", False),
    (multiwindow.MultiWindowGraph, "window_view", "multiwindow.view",
     "multiwindow", False),
    (postmortem, "solve_program_chain", "programs.chain", "programs", False),
    (pagerank_program, "pagerank_window", "pagerank.kernel", "pagerank",
     False),
    (pagerank_program, "pagerank_windows_spmm", "pagerank.kernel",
     "pagerank", False),
    (shared_arena, "run_arena_tasks", "shared_arena.dispatch",
     "shared_arena", False),
    (postmortem, "_shared_lazy_graph_worker", "shared_arena.task",
     "shared_arena", True),
    (RankStoreWriter, "write_window", "store.write", "store", False),
    (RankStoreWriter, "close", "store.close", "store", False),
]

LAYERS = ("io", "models", "multiwindow", "pagerank", "programs",
          "shared_arena", "store")
SERVICE_PARTS = ("http", "coordinator", "engine")
OPS = ("top_k", "rank", "trajectory", "movers")


def client_spans(outcome, root: Span, spans: List[Span]) -> Span:
    """Add the client threads' per-request intervals as ``service.http``
    spans under a unit root that spans the clients' own wall interval
    (the serving process is not patched; the clients stamp each request)."""
    start = min(a[2] for a in outcome.answers)
    end = max(a[3] for a in outcome.answers)
    spans.remove(root)
    root = Span(root.id, None, root.pid, root.name, root.layer, start, end)
    spans.append(root)
    for i, (_, _, t0, t1) in enumerate(outcome.answers):
        spans.append(Span(-(i + 1), root.id, 0, "service.http", "service",
                          t0, t1))
    return root


def install(tracer: Tracer) -> None:
    for owner, attr, name, layer, flush in PATCHES:
        tracer.patch(owner, attr, name, layer, flush)


def _within(spans: List[Span], root: Span) -> List[Span]:
    return [s for s in spans
            if s.start >= root.start and s.end <= root.end]


def _pick(timed: List[Span], setup: List[Span], name: str) -> List[Span]:
    """A layer's spans from the timed unit, else from the set-up (the
    ``.tcsr`` of two workloads is built in set-up)."""
    own = [s for s in timed if s.name == name]
    return own if own else [s for s in setup if s.name == name]


def layer_metrics(spans: List[Span], timed_root: Span, setup_root: Span,
                  outcome, tcsr: Optional[str], untraced_run_s: float,
                  service_split: Optional[Dict[str, float]] = None,
                  ) -> Dict[str, float]:
    timed = _within(spans, timed_root)
    setup = _within(spans, setup_root)
    m: Dict[str, float] = {}

    builds = _pick(timed, setup, "io.build")
    m["io.build_s"] = sum(s.duration for s in builds)
    n_events = 0
    if tcsr is not None:
        events = gio.open_events(tcsr)
        n_events = len(events)
        events.close()
    m["io.build_events_per_s"] = (
        n_events * len(builds) / m["io.build_s"] if m["io.build_s"] else 0.0
    )
    m["io.tcsr_bytes"] = os.path.getsize(tcsr) if tcsr else 0
    m["io.open_s"] = sum(s.duration for s in _pick(timed, setup, "io.open"))

    result = outcome.result
    meta = result.metadata if result is not None else {}
    m["multiwindow.materialize_s"] = total_by_name(
        timed, "multiwindow.materialize")
    m["multiwindow.graphs"] = count_by_name(timed, "multiwindow.materialize")
    m["multiwindow.view_s"] = total_by_name(timed, "multiwindow.view")
    m["multiwindow.views"] = count_by_name(timed, "multiwindow.view")
    m["multiwindow.replication_factor"] = meta.get("replication_factor", 0.0)

    work = result.work if result is not None else None
    m["pagerank.kernel_s"] = total_by_name(timed, "pagerank.kernel")
    m["pagerank.kernel_calls"] = count_by_name(timed, "pagerank.kernel")
    for key in ("iterations", "edge_traversals", "active_edge_traversals",
                "vertex_ops"):
        m[f"pagerank.{key}"] = getattr(work, key, 0) if work else 0
    m["pagerank.edges_per_s"] = (
        m["pagerank.active_edge_traversals"] / m["pagerank.kernel_s"]
        if m["pagerank.kernel_s"] else 0.0
    )
    # computed, not measured: per traversed active edge an 8-byte column
    # index and an 8-byte gathered rank; per vertex op three 8-byte
    # vectors (rank in, rank out, inverse out-degree)
    m["pagerank.computed_bytes"] = (
        16 * m["pagerank.active_edge_traversals"]
        + 24 * m["pagerank.vertex_ops"]
    )

    tasks = meta.get("task_log", [])
    m["programs.chain_self_s"] = self_by_name(timed, "programs.chain")
    m["programs.windows"] = sum(len(t.windows) for t in tasks)
    m["programs.partial_init_windows"] = sum(
        len(t.windows) for t in tasks if t.used_partial_init)

    stats = meta.get("shared_arena", {})
    publish = float(stats.get("publish_seconds", 0.0))
    m["shared_arena.publish_s"] = publish
    for key in ("payload_bytes", "init_bytes", "arena_bytes",
                "mapped_bytes"):
        m[f"shared_arena.{key}"] = stats.get(key, 0)
    dispatch = total_by_name(timed, "shared_arena.dispatch")
    m["shared_arena.wait_s"] = (max(0.0, dispatch - publish) if dispatch
                                else 0.0)
    m["shared_arena.worker_busy_s"] = total_by_name(timed,
                                                    "shared_arena.task")
    m["shared_arena.worker_util"] = (
        m["shared_arena.worker_busy_s"]
        / (workloads.WORKERS * m["shared_arena.wait_s"])
        if m["shared_arena.wait_s"] else 0.0
    )

    m["store.write_s"] = (total_by_name(timed, "store.write")
                          + total_by_name(timed, "store.close"))
    m["store.windows_written"] = count_by_name(timed, "store.write")
    m["store.bytes"] = (
        os.path.getsize(outcome.store)
        if outcome.store and m["store.windows_written"] else 0
    )

    run_s = timed_root.duration
    shares = wall_attribution(timed, timed_root.start, timed_root.end)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = shares.get(layer, 0.0)
    service = shares.get("service", 0.0)
    split = service_split or {}
    for part in SERVICE_PARTS:
        m[f"self_s.service_{part}"] = service * split.get(part, 0.0)
    m["self_s.unattributed"] = shares.get("bench", 0.0)
    # coverage counts only the named layers: PostmortemDriver.run itself
    # (``models``) is reported but covers nothing
    m["trace.coverage"] = 1.0 - (m["self_s.unattributed"]
                                 + m["self_s.models"]) / run_s
    m["trace.run_s"] = run_s
    m["trace.untraced_run_s"] = untraced_run_s
    m["trace.overhead_s"] = run_s - untraced_run_s
    m["trace.overhead_share"] = (run_s - untraced_run_s) / untraced_run_s
    return m


# ----------------------------------------------------------------------
# serving attribution
# ----------------------------------------------------------------------
def _worker_counters(stats: dict) -> Dict[str, float]:
    """Summed cache/batching counters from the replicas' last pings, as
    the frontend's ``/stats`` reports them."""
    out = {"topk_hits": 0, "topk_lookups": 0, "slice_hits": 0,
           "slice_lookups": 0, "batches": 0, "batched_queries": 0.0}
    for replica in stats["replicas"].values():
        worker = replica.get("worker") or {}
        for cache in ("topk", "slice"):
            c = worker.get(f"{cache}_cache", {})
            out[f"{cache}_hits"] += c.get("hits", 0)
            out[f"{cache}_lookups"] += c.get("hits", 0) + c.get("misses", 0)
        b = worker.get("batching", {})
        out["batches"] += b.get("batches_executed", 0)
        out["batched_queries"] += (b.get("batches_executed", 0)
                                   * b.get("mean_batch_queries", 0.0))
    out["shed"] = (stats["router"]["queries_shed"]
                   + stats["frontend"]["requests_shed"])
    out["degraded"] = stats["router"]["queries_degraded"]
    return out


#: seconds to wait so the health loop has harvested a ping sent after
#: the load stopped (it pings every 0.5 s and reads the reply next round)
PING_SETTLE_S = 1.2


def cluster_snapshot(state) -> Dict[str, float]:
    time.sleep(PING_SETTLE_S)
    with urllib.request.urlopen(state["url"] + "/stats", timeout=10) as r:
        return _worker_counters(json.loads(r.read().decode()))


def serving_metrics(wl, state, outcome, before: Dict[str, float],
                    after: Dict[str, float]):
    """Replay the timed stream through ``ShardCluster.query`` (a cluster of
    the same shape in this process, 2 client threads like the HTTP run)
    and through an in-process ``QueryEngine``; with the HTTP latencies
    this splits a request into HTTP, coordinator+pipe and engine time.
    Returns ``(metrics, service_split)``."""
    store = state["built"].store
    queries = wl.queries[outcome.queries]
    http = [a[3] - a[2] for a in outcome.answers]
    warm = traffic.generate_queries(
        workloads.WARMUP_QUERIES, state["built"].spec.n_windows,
        workloads.n_vertices(), seed=wl.seed + 7919)

    cluster = ShardCluster(store, n_shards=N_SHARDS, replicas=1)
    try:
        closed_loop(warm, lambda q: (200, cluster.query(q)),
                    workloads.CLIENTS)
        coord_answers = closed_loop(
            queries, lambda q: (200, cluster.query(q)), workloads.CLIENTS)
    finally:
        cluster.shutdown()
    coord = [a[3] - a[2] for a in coord_answers]

    engine = QueryEngine(store)
    try:
        for q in warm:
            engine.batch([q])
        eng = []
        for q in queries:
            t0 = time.perf_counter()
            engine.batch([q])
            eng.append(time.perf_counter() - t0)
    finally:
        engine.close()

    m: Dict[str, float] = {}
    m["cluster.frontend_p50_ms"] = median(http) * 1e3
    m["cluster.coordinator_p50_ms"] = median(coord) * 1e3
    m["engine.query_p50_us"] = median(eng) * 1e6
    mean_http = sum(http) / len(http)
    mean_coord = sum(coord) / len(coord)
    mean_eng = sum(eng) / len(eng)
    split = {
        "http": max(0.0, mean_http - mean_coord) / mean_http,
        "coordinator": max(0.0, mean_coord - mean_eng) / mean_http,
    }
    split["engine"] = 1.0 - split["http"] - split["coordinator"]
    m["cluster.http_share"] = split["http"]
    m["cluster.coordinator_share"] = split["coordinator"]
    d = {k: after[k] - before[k] for k in after}
    m["engine.topk_hit_rate"] = (d["topk_hits"] / d["topk_lookups"]
                                 if d["topk_lookups"] else 0.0)
    m["engine.slice_hit_rate"] = (d["slice_hits"] / d["slice_lookups"]
                                  if d["slice_lookups"] else 0.0)
    m["cluster.mean_batch_queries"] = (d["batched_queries"] / d["batches"]
                                       if d["batches"] else 0.0)
    m["cluster.shed"] = d["shed"]
    m["cluster.degraded"] = d["degraded"]
    for op in OPS:
        lat = [a[3] - a[2] for q, a in zip(queries, outcome.answers)
               if q["op"] == op]
        m[f"query.{op}.p50_ms"] = median(lat) * 1e3 if lat else 0.0
    return m, split


SERVING_KEYS = (
    ["query_p50_ms", "query_p99_ms", "cluster.frontend_p50_ms",
     "cluster.coordinator_p50_ms", "engine.query_p50_us", "cluster.http_share",
     "cluster.coordinator_share", "engine.topk_hit_rate",
     "engine.slice_hit_rate", "cluster.mean_batch_queries", "cluster.shed",
     "cluster.degraded"]
    + [f"query.{op}.p50_ms" for op in OPS]
)
