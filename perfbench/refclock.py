"""Reference clock: measured seconds converted to one fixed host speed.

The shared 4-core box this benchmark was defined on ran the same kernel
in 7 ms in one run and 15 ms in another, and switched between such
speeds within runs, as other tenants loaded its cores and caches. Raw
wall times of identical runs then spread more than any bound a
regression check can use. So a run times a fixed CPU kernel (``probe``)
around each step it measures, and converts the step's measured seconds
to *reference seconds*::

    reference seconds = measured seconds * REF_S / probe seconds

where the probe seconds are the mean of the probes taken right before
and right after the step, when the step has ended before it is used,
and otherwise the latest probe.

``REF_S`` lies inside the range of the probe's times on that box, so a
reference second is a second on it at a typical speed. The kernel
belongs to the benchmark, never to the program, so a faster program
shows as fewer reference seconds while a faster host does not. It mixes
what the index code spends its time on: a heap-based Dijkstra over
Python adjacency lists and small NumPy gathers reduced with a min (the
H2H query) over rows spread across more memory than a core's cache
holds, so a neighbour that fills the shared cache slows it as it slows
the index.

The raw seconds stay in the run manifest beside the converted ones.
"""
from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np

REF_S = 0.010        # kernel seconds at a typical speed of the defining box (7-15 ms)
REPS = 5             # a probe is the median of this many kernel runs
GRID_W, GRID_H = 50, 30
ROWS, ROW_LEN = 40000, 48   # ~20 MB of small arrays: more than a core's L2 cache
GATHERS = 1500


class RefClock:
    """Times the reference kernel; converts seconds to reference seconds."""

    def __init__(self):
        rng = np.random.default_rng(7)
        n = GRID_W * GRID_H
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for x in range(GRID_W):
            for y in range(GRID_H):
                v = x * GRID_H + y
                for u in ((v + GRID_H) if x + 1 < GRID_W else -1,
                          (v + 1) if y + 1 < GRID_H else -1):
                    if u >= 0:
                        w = float(rng.integers(10, 100))
                        adj[v].append((u, w))
                        adj[u].append((v, w))
        self.adj = adj
        self.rows = [rng.random(ROW_LEN) for _ in range(ROWS)]
        self.cols = rng.integers(0, ROW_LEN, size=(GATHERS, 16))
        self.pairs = rng.integers(0, ROWS, size=(GATHERS, 2)).tolist()
        self.probes: list[float] = []
        self._kernel()  # the first run in a process is slow: allocation, caches

    def _kernel(self) -> float:
        adj = self.adj
        dist = {0: 0.0}
        pq = [(0.0, 0)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist.get(v, 1e300):
                    dist[v] = nd
                    heapq.heappush(pq, (nd, v))
        rows, acc = self.rows, 0.0
        for (s, t), c in zip(self.pairs, self.cols):
            acc += float((rows[s][c] + rows[t][c]).min())
        return acc + len(dist)

    def probe(self) -> float:
        """Median seconds of ``REPS`` kernel runs; recorded in ``probes``.

        The garbage collector is off while the kernel runs: a collection
        walks the program's heap, whose size is not the host's speed.
        """
        times = []
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPS):
                t0 = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if gc_was_on:
                gc.enable()
        p = statistics.median(times)
        self.probes.append(p)
        return p

    @staticmethod
    def factor(*probes: float) -> float:
        """Reference seconds per measured second, given the probes around a step."""
        return REF_S * len(probes) / sum(probes)
