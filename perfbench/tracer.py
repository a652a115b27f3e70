"""Span tracing installed from outside the program.

The benchmark does not edit ``src/``: it records spans around the calls
into each layer's public functions by replacing them, for the duration of
a traced run, at the name each caller resolves.  Modules bind with
``from ... import``, so a function is patched in every namespace that
holds it (``repro.models.postmortem.build_compact_graph`` as well as
``repro.graph.multiwindow.build_compact_graph``), and methods are patched
on their class.

Spans nest through a ``contextvars`` variable.  A span started on a thread
with no open span (the shared executor's sink-drain thread, client
threads, the frontend's executor threads) is adopted by the innermost span
open on the main thread, so the main thread's timeline accounts for it.

Shared-executor workers are forked after the wrappers are installed and
inherit them; the context they inherit makes their task spans children of
the parent's dispatch span.  Each worker appends its spans to a spool file
after every task (the task wrapper flushes), and the parent reads the
spool after the run.  ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on
Linux, so worker and parent timestamps share one clock.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import glob
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = ["Span", "Tracer", "wall_attribution"]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    """One timed call: ``[start, end]`` on the shared monotonic clock."""

    __slots__ = ("id", "parent", "pid", "name", "layer", "start", "end")

    def __init__(self, id, parent, pid, name, layer, start, end=None):
        self.id = id
        self.parent = parent
        self.pid = pid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end

    def as_list(self) -> list:
        return [self.id, self.parent, self.pid, self.name, self.layer,
                self.start, self.end]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one traced run and owns the patches it made."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        os.makedirs(spool_dir, exist_ok=True)
        self.spans: List[Span] = []
        self._root_pid = self._pid = os.getpid()
        self._next = 0
        self._lock = threading.Lock()
        self._main_stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _new_id(self) -> int:
        pid = os.getpid()
        with self._lock:
            if pid != self._pid:
                # first span in a forked worker: drop the parent's copy
                self._pid = pid
                self.spans = []
            self._next += 1
            return pid * 10_000_000 + self._next

    def begin(self, name: str, layer: str) -> Tuple[Span, object]:
        parent = _CURRENT.get()
        on_main = threading.current_thread() is threading.main_thread()
        if parent is None and not on_main and self._main_stack:
            parent = self._main_stack[-1]
        span = Span(self._new_id(), parent, os.getpid(), name, layer,
                    time.perf_counter())
        token = _CURRENT.set(span.id)
        if on_main:
            self._main_stack.append(span.id)
        return span, token

    def end(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        if threading.current_thread() is threading.main_thread():
            self._main_stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        """Context manager form, for the benchmark's own phases."""
        span, token = self.begin(name, layer)
        try:
            yield span
        finally:
            self.end(span, token)

    def wrap(self, fn: Callable, name: str, layer: str,
             flush: bool = False) -> Callable:
        """``fn`` inside a span; ``flush`` spools worker spans after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span, token)
                if flush:
                    self.flush_worker()

        return traced

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, name: str, layer: str,
              flush: bool = False) -> None:
        """Replace ``owner.attr`` (module global or class attribute)."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, flush))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- worker spool ----------------------------------------------------
    def flush_worker(self) -> None:
        """Append this worker's finished spans to its spool file."""
        pid = os.getpid()
        if pid == self._root_pid:
            return
        with self._lock:
            if pid != self._pid:  # nothing recorded in this worker yet
                return
            spans, self.spans = self.spans, []
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            for s in spans:
                f.write(json.dumps(s.as_list()) + "\n")

    def collect(self) -> List[Span]:
        """The parent's spans plus every spooled worker span."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as f:
                spans.extend(Span(*json.loads(line)) for line in f)
            os.remove(path)
        return spans


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _union(intervals: Iterable[Tuple[float, float]]) -> List[List[float]]:
    merged: List[List[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _subtract(lo: float, hi: float,
              holes: List[List[float]]) -> List[Tuple[float, float]]:
    out, cur = [], lo
    for a, b in holes:
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur:
            out.append((cur, a))
        cur = max(cur, b)
    if cur < hi:
        out.append((cur, hi))
    return out


def self_intervals(spans: List[Span]) -> Dict[int, List[Tuple[float, float]]]:
    """Per span: its interval minus the union of its children's."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: _subtract(s.start, s.end, _union(children.get(s.id, [])))
        for s in spans
    }


def wall_attribution(spans: List[Span], lo: float,
                     hi: float) -> Dict[str, float]:
    """Split the wall interval ``[lo, hi]`` among layers.

    Every span contributes its self intervals; where ``k`` self intervals
    overlap (two shared-executor workers busy at once) each gets ``1/k``
    of that stretch, so the layer totals sum to the covered wall time.
    """
    layer_of = {s.id: s.layer for s in spans}
    edges: List[Tuple[float, int, str]] = []
    for sid, ivs in self_intervals(spans).items():
        for a, b in ivs:
            a, b = max(a, lo), min(b, hi)
            if b > a:
                edges.append((a, 1, layer_of[sid]))
                edges.append((b, -1, layer_of[sid]))
    edges.sort(key=lambda e: (e[0], e[1]))
    out: Dict[str, float] = defaultdict(float)
    active: Dict[str, int] = defaultdict(int)
    n_active, prev = 0, lo
    for t, delta, layer in edges:
        if n_active and t > prev:
            share = (t - prev) / n_active
            for name, count in active.items():
                if count:
                    out[name] += share * count
        prev = max(prev, t)
        active[layer] += delta
        n_active += delta
    return dict(out)


def total_by_name(spans: List[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def count_by_name(spans: List[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def self_by_name(spans: List[Span], name: str) -> float:
    selfs = self_intervals(spans)
    return sum(
        b - a for s in spans if s.name == name for a, b in selfs[s.id]
    )

