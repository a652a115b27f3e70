"""Peak resident memory of a process tree, for the pipeline benchmark."""

from __future__ import annotations

import os
import threading
from typing import List

__all__ = ["TreeRssSampler", "tree_rss_bytes"]


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
        except OSError:
            continue
    return out


def _pss_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/smaps_rollup") as f:
        for line in f:
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    raise ValueError(f"no Pss line for {pid}")


def tree_rss_bytes(root: int) -> int:
    """Resident bytes of ``root`` and every live descendant.

    Each process contributes its proportional set size, so pages the
    processes share (a forked worker's copy-on-write inheritance, one
    mapped file read by several workers) count once for the tree.
    """
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        try:
            total += _pss_bytes(pid)
        except (OSError, ValueError):
            continue
        stack.extend(_children(pid))
    return total


class TreeRssSampler:
    """Peak resident memory of a process tree over a ``with`` block.

    A background thread samples the resident memory of ``root`` and all
    its descendants (shared-executor workers, shard replicas) every
    ``interval`` seconds; the peak of the sums is reported.  Only the
    block is sampled, so set-up that ended before it does not set the
    peak unless its memory is still resident.  A sample costs about
    1.5 ms of CPU for three processes.
    """

    def __init__(self, root: int, interval: float) -> None:
        self.root = root
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="rss-sampler", daemon=True)

    def _loop(self) -> None:
        while True:
            self.peak = max(self.peak, tree_rss_bytes(self.root))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "TreeRssSampler":
        self.peak = tree_rss_bytes(self.root)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, tree_rss_bytes(self.root))

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20

