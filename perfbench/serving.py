"""The serving side of ``serve-zipf``: load loop and server process.

The serving tier runs in its own process, started from a clean
interpreter, so the benchmark's own memory (the set-up's compute) and
its client threads stay out of the serving process::

    python3 -m perfbench.serving STORE
    -> prints the frontend URL once the 2-shard cluster is up
    <- serves until standard input closes, then shuts down
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
import urllib.error
from typing import Callable, List, Optional, Tuple

N_SHARDS = 2


def closed_loop(queries: List[dict], send: Callable,
                clients: int) -> List[tuple]:
    """``clients`` threads, each sending its share of ``queries`` one at
    a time; returns ``(status, payload, start, end)`` per query."""
    answers: List[Optional[tuple]] = [None] * len(queries)

    def client(slot: int) -> None:
        for i in range(slot, len(queries), clients):
            t0 = time.perf_counter()
            try:
                status, payload = send(queries[i])
            except (urllib.error.URLError, OSError, ValueError) as exc:
                status, payload = -1, {"error": str(exc)}
            answers[i] = (status, payload, t0, time.perf_counter())

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"client-{i}") for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return answers  # type: ignore[return-value]


def start(store: str, env: dict, cwd: str) -> Tuple[subprocess.Popen, str]:
    """Start a serving process over ``store``; returns it and its URL."""
    server = subprocess.Popen(
        [sys.executable, "-m", "perfbench.serving", store],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env, cwd=cwd,
    )
    url = server.stdout.readline().strip()
    if not url.startswith("http://"):
        stop(server)
        raise RuntimeError("the serving process failed to start")
    return server, url


def stop(server: subprocess.Popen) -> None:
    """Close the serving process's input and wait for it to exit."""
    server.stdin.close()
    try:
        server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()


def serve(store: str) -> int:
    from repro.service.cluster import ClusterFrontend, ShardCluster

    cluster = ShardCluster(store, n_shards=N_SHARDS, replicas=1)
    try:
        frontend = ClusterFrontend(cluster, port=0).start()
        try:
            print(frontend.url, flush=True)
            sys.stdin.read()
        finally:
            frontend.shutdown()
    finally:
        cluster.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1]))
