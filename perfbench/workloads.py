"""The three pipeline workloads: set-up, one unit of timed work, checks.

All three use the ``wiki-talk-xl`` profile at ``scale=0.5`` (3.0M events,
10,606 vertices, smooth growth), generated from the run's ``--seed``; the
program sees only the generated event chunks.  PageRank runs with
tolerance 1e-8 and the paper's Y=6 multi-window graphs.

* ``pm-spmm-wide``: set-up builds the ``.tcsr``; a unit opens it and runs
  postmortem SpMM (k=8, serial, lazy materialization) over 60 overlapping
  windows (90 days each).
* ``pipeline-narrow-shared``: set-up writes event chunks to disk; a unit
  builds the ``.tcsr`` (2 workers), opens it, runs postmortem SpMV on the
  shared executor (2 workers, lazy) over 240 near-disjoint windows
  (10 days each) and streams every window into a ``RankStoreWriter``.
* ``serve-zipf``: set-up builds the 240-window store the same way, starts
  a serving process with a 2-shard ``ShardCluster`` behind
  ``ClusterFrontend`` (:mod:`perfbench.serving`) and sends a warm-up
  stream; a unit is a closed loop of 2 client threads sending a slice of
  a fixed seeded zipfian query stream over HTTP, each unit after the
  first to a serving process of its own, started and warmed up untimed.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.datasets.profiles import get_profile
from repro.events.windows import WindowSpec
from repro.graph import io as gio
from repro.models import postmortem
from repro.pagerank.config import PagerankConfig
from repro.service.cluster import traffic
from repro.service.engine import QueryEngine
from repro.service.store import RankStore, RankStoreWriter

from perfbench import serving
from perfbench.serving import closed_loop
from perfbench.oracle import EventLog, error_bound, oracle_pagerank

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
PROFILE = "wiki-talk-xl"
SCALE = 0.5
TOLERANCE = 1e-8
N_MULTIWINDOWS = 6
CHUNK_EVENTS = 500_000
WORKERS = 2
DAY = 86_400
#: windows checked against the oracle, drawn from the run's seed
ORACLE_SAMPLE = 12
#: nominal serving rate: the timed stream holds QPS_NOMINAL x --seconds
#: queries, so its length depends on the arguments only, not on speed
QPS_NOMINAL = 1000
#: the serving stream is sent as this many units (consecutive slices);
#: ``run_s`` is their median
SERVE_UNITS = 8
CLIENTS = 2
WARMUP_QUERIES = 600


def settle() -> None:
    """Start a measured phase from a quiet state: collect garbage and
    write back dirty pages, so that the kernel's writeback of the
    previous phase's files (a ``.tcsr`` is 174 MB) does not run during
    it."""
    gc.collect()
    os.sync()


def window_spec(events, delta_days: int, n_windows: int) -> WindowSpec:
    """``n_windows`` windows of ``delta_days`` spread over the data."""
    delta = delta_days * DAY
    sw = (int(events.t_max) - int(events.t_min) - delta) // (n_windows - 1)
    return WindowSpec(int(events.t_min), delta, int(sw), n_windows)


def config() -> PagerankConfig:
    return PagerankConfig(tolerance=TOLERANCE)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def n_vertices() -> int:
    return get_profile(PROFILE)._scaled_counts(SCALE)[1]


def write_chunks(directory: str, seed: int) -> List[str]:
    """Generate the seeded event stream to ``.npy`` chunk files."""
    paths = []
    chunks = get_profile(PROFILE).iter_event_chunks(
        chunk_events=CHUNK_EVENTS, seed_offset=seed, scale=SCALE
    )
    for i, (src, dst, t) in enumerate(chunks):
        path = os.path.join(directory, f"chunk{i:03d}.npy")
        np.save(path, np.stack([src, dst, t]))
        paths.append(path)
    return paths


def read_chunks(paths: List[str]):
    for path in paths:
        block = np.load(path, mmap_mode="r")
        yield block[0], block[1], block[2]


def build(paths: List[str], tcsr: str) -> str:
    return gio.build_tcsr(
        read_chunks(paths), tcsr, n_vertices(),
        chunk_events=CHUNK_EVENTS, n_workers=WORKERS,
    )


# ----------------------------------------------------------------------
# outcomes and checks
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one timed unit produced, for the checks after it."""

    result: object = None
    spec: Optional[WindowSpec] = None
    store: Optional[str] = None
    tcsr: Optional[str] = None
    #: serving: per query (status, payload, start, end)
    answers: List[tuple] = field(default_factory=list)
    #: serving: first send to last reply of the client threads, which
    #: leaves out starting and joining them
    wall: Optional[float] = None
    #: serving: which slice of the workload's query stream was sent
    queries: Optional[slice] = None


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.errors


def check_windows(outcome: Outcome, log: Optional[EventLog], seed: int,
                  check: Check) -> None:
    """Convergence of every window, the oracle on a seeded sample, and
    the store's rows bitwise equal to the run's values."""
    result, spec = outcome.result, outcome.spec
    bad = set()
    for i, w in enumerate(result.windows):
        if not w.converged or w.values is None:
            bad.add(i)
    if log is not None:
        rng = np.random.default_rng(seed)
        sample = rng.choice(spec.n_windows,
                            size=min(ORACLE_SAMPLE, spec.n_windows),
                            replace=False)
        bound = error_bound(TOLERANCE, config().alpha)
        for w in sorted(int(i) for i in sample):
            win = spec.window(w)
            src, dst = log.window_edges(win.t_start, win.t_end)
            ref = oracle_pagerank(src, dst, log.n_vertices, config().alpha)
            err = float(np.abs(ref - result.windows[w].values).sum())
            if not err <= bound:
                bad.add(w)
                check.fail(f"window {w}: L1 error {err:.3e} > {bound:.3e}")
    if outcome.store is not None:
        with RankStore(outcome.store) as store:
            for i, w in enumerate(result.windows):
                row = np.asarray(store.row(i))
                want = np.asarray(w.values, dtype=store.matrix.dtype)
                if row.tobytes() != want.tobytes():
                    bad.add(i)
                    check.fail(f"window {i}: store row differs from run")
    check.attempted += len(result.windows)
    check.failed += len(bad)


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([REPO_ROOT, SRC_DIR])
    return env


def engine_answers(store: str, queries: List[dict]) -> List[dict]:
    """What an in-process ``QueryEngine`` answers, as JSON would carry it."""
    engine = QueryEngine(store)
    try:
        return [json.loads(json.dumps(engine.batch([q])[0]))
                for q in queries]
    finally:
        engine.close()


def check_answers(answers: List[tuple], expected: List[dict], first: int,
                  check: Check) -> None:
    """HTTP answers against the engine's: non-200, shed, degraded and
    differing answers fail."""
    for i, (status, payload, _, _) in enumerate(answers, start=first):
        if status != 200:
            problem = f"query {i}: HTTP {status}: {payload}"
        elif payload.get("shed") or payload.get("degraded"):
            problem = f"query {i}: shed/degraded: {payload}"
        elif payload != expected[i - first]:
            problem = f"query {i}: answer differs from the engine"
        else:
            problem = None
        check.attempted += 1
        check.failed += problem is not None
        if problem is not None:
            check.fail(problem)


def send(url: str, queries: List[dict]) -> List[tuple]:
    return closed_loop(queries, lambda q: traffic.send_query(url, q),
                       CLIENTS)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: repeat units until ``--seconds`` of timed work, and at least
    #: ``min_units`` of them: a single slow unit then cannot set the
    #: median (units of one run differed by up to 20%).  Serving sizes its
    #: stream from ``--seconds`` instead and sends it in ``min_units``
    repeat = True
    min_units = 3
    #: seconds between memory samples during a unit: the compute
    #: workloads' peaks stay within 5% of their height for only
    #: 0.2-0.4 s, which a 0.5 s interval missed by up to 13%
    rss_interval = 0.02

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.log: Optional[EventLog] = None

    def setup(self, directory: str) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def teardown(self, state: dict) -> None:
        pass

    def measured_pid(self, state: dict) -> int:
        """Root of the process tree whose memory a unit reports."""
        return os.getpid()

    def prepare(self, state: dict) -> None:
        """Untimed reset before a unit (e.g. remove the last unit's files)."""
        settle()

    def unit(self, state: dict) -> Outcome:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self, state: dict, outcome: Outcome, check: Check,
              oracle: bool = True) -> None:
        """Check one unit's windows; ``oracle=False`` skips the oracle,
        whose event log would stay resident during later units."""
        if oracle and self.log is None:
            self.log = EventLog(list(read_chunks(state["chunks"])),
                                n_vertices())
        check_windows(outcome, self.log if oracle else None, self.seed,
                      check)


class PmSpmmWide(Workload):
    """Postmortem SpMM over 60 overlapping windows, serial."""

    name = "pm-spmm-wide"
    delta_days, n_windows = 90, 60

    def setup(self, directory: str) -> dict:
        chunks = write_chunks(directory, self.seed)
        tcsr = build(chunks, os.path.join(directory, "events.tcsr"))
        return {"dir": directory, "chunks": chunks, "tcsr": tcsr}

    def unit(self, state: dict) -> Outcome:
        events = gio.open_events(state["tcsr"])
        spec = window_spec(events, self.delta_days, self.n_windows)
        model = postmortem.PostmortemDriver(
            events, spec, config(),
            postmortem.PostmortemOptions(
                n_multiwindows=N_MULTIWINDOWS, kernel="spmm",
                vector_length=8, executor="serial", materialize="lazy",
            ),
        )
        return Outcome(result=model.run(), spec=spec)


def narrow_run(chunks: List[str], directory: str) -> Outcome:
    """Ingest -> open -> shared-executor SpMV -> rank store."""
    tcsr = build(chunks, os.path.join(directory, "events.tcsr"))
    events = gio.open_events(tcsr)
    spec = window_spec(events, PipelineNarrowShared.delta_days,
                       PipelineNarrowShared.n_windows)
    model = postmortem.PostmortemDriver(
        events, spec, config(),
        postmortem.PostmortemOptions(
            n_multiwindows=N_MULTIWINDOWS, kernel="spmv",
            executor="shared", n_threads=WORKERS, materialize="lazy",
        ),
    )
    store = os.path.join(directory, "ranks.rankstore")
    writer = RankStoreWriter(store, spec.n_windows, n_vertices(), spec=spec)
    try:
        result = model.run(value_sink=writer.write_window)
    except BaseException:
        writer.abort()
        raise
    writer.close()
    return Outcome(result=result, spec=spec, store=store, tcsr=tcsr)


class PipelineNarrowShared(Workload):
    """The write side: build, open, shared SpMV, store."""

    name = "pipeline-narrow-shared"
    delta_days, n_windows = 10, 240

    def setup(self, directory: str) -> dict:
        return {"dir": directory, "chunks": write_chunks(directory,
                                                          self.seed)}

    def prepare(self, state: dict) -> None:
        for name in ("events.tcsr", "ranks.rankstore"):
            path = os.path.join(state["dir"], name)
            if os.path.exists(path):
                os.remove(path)
        super().prepare(state)

    def unit(self, state: dict) -> Outcome:
        return narrow_run(state["chunks"], state["dir"])


class ServeZipf(Workload):
    """Closed-loop zipfian HTTP traffic against a 2-shard cluster."""

    name = "serve-zipf"
    repeat = False
    min_units = SERVE_UNITS
    #: the serving processes' memory is flat during the stream, and the
    #: sampler runs in the client process: sampling every 0.1 s raised
    #: the client-stamped p99 by about 25%, every 0.5 s left it unchanged
    rss_interval = 0.5

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed)
        self.unit_queries = max(1, int(QPS_NOMINAL * seconds) // SERVE_UNITS)
        self.queries: List[dict] = []
        self.units_sent = 0

    def setup(self, directory: str) -> dict:
        chunks = write_chunks(directory, self.seed)
        built = narrow_run(chunks, directory)
        for path in chunks:
            os.remove(path)
        state = {"dir": directory, "built": built}
        self.serve(state)
        if not self.queries:
            self.queries = traffic.generate_queries(
                self.unit_queries * SERVE_UNITS, built.spec.n_windows,
                n_vertices(), seed=self.seed,
            )
        return state

    def serve(self, state: dict) -> None:
        """Start a serving process over the store and warm it up."""
        built = state["built"]
        state["server"], state["url"] = serving.start(
            built.store, server_env(), REPO_ROOT)
        send(state["url"], traffic.generate_queries(
            WARMUP_QUERIES, built.spec.n_windows, n_vertices(),
            seed=self.seed + 7919,
        ))

    def prepare(self, state: dict) -> None:
        """Every unit gets a serving process of its own: one process's
        speed stays put while it runs but differs between processes
        (see README.md, Host noise), so ``run_s``, the median over
        units, samples several."""
        if self.units_sent:
            serving.stop(state["server"])
            self.serve(state)
        super().prepare(state)

    def teardown(self, state: dict) -> None:
        serving.stop(state["server"])

    def measured_pid(self, state: dict) -> int:
        return state["server"].pid

    def unit_slice(self, unit: int) -> slice:
        lo = (unit % SERVE_UNITS) * self.unit_queries
        return slice(lo, lo + self.unit_queries)

    def unit(self, state: dict) -> Outcome:
        span = self.unit_slice(self.units_sent)
        self.units_sent += 1
        answers = send(state["url"], self.queries[span])
        wall = max(a[3] for a in answers) - min(a[2] for a in answers)
        return Outcome(answers=answers, wall=wall, queries=span)

    def check(self, state, outcome, check, oracle=True) -> None:
        if "expected" not in state:
            state["expected"] = engine_answers(state["built"].store,
                                               self.queries)
        check_answers(outcome.answers, state["expected"][outcome.queries],
                      outcome.queries.start, check)

    def check_setup(self, state: dict, check: Check) -> None:
        """The set-up's own compute output must be sound too; its windows
        are not this workload's operations, so only errors carry over."""
        own = Check()
        check_windows(state["built"], None, self.seed, own)
        for message in own.errors:
            check.fail(f"set-up: {message}")
        if own.failed:
            check.fail(f"set-up: {own.failed} windows failed")


def make(name: str, seed: int, seconds: float) -> Workload:
    if name == PmSpmmWide.name:
        return PmSpmmWide(seed)
    if name == PipelineNarrowShared.name:
        return PipelineNarrowShared(seed)
    if name == ServeZipf.name:
        return ServeZipf(seed, seconds)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (PmSpmmWide.name, PipelineNarrowShared.name, ServeZipf.name)


def fresh_dir(root: str, name: str) -> str:
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path

