"""PostMHL: Post-partitioned Multi-stage Hub Labeling (paper §VI, Alg. 4).

One global MDE tree decomposition carries *all* index components:

- **overlay index**: full H2H labels of the overlay vertices (the
  upward-closed complement of the partition subtrees chosen by
  TD-partitioning);
- **post-boundary index** (per partition): the boundary array
  ``disB[v][j] = d_G(v, b_j)`` for the partition's separator
  ``B_i = X(root).N`` plus the distance-array entries to *in-partition*
  ancestors — both computable from the overlay index alone (Theorem 4);
- **cross-boundary index** (per partition): the distance-array entries
  to *overlay* ancestors, the columns ``[0, depth(root))`` of each
  in-partition label row.

Because every in-partition root path is (overlay ancestors, then
in-partition ancestors), the full label rows equal plain H2H labels on
the same order — PostMHL's final-stage query *is* DH2H's (Remark 2),
which we assert in tests. Both per-partition phases are therefore the
H2H DP itself, run by ``build_labels`` on a column window of the
partition's rows: post-boundary on the depths of B_i plus
``[depth(root), h)``, cross-boundary on ``[0, depth(root))``; ``disB``
is the B_i part of the post-boundary window.

Update stages: U1 edge refresh → U2 shortcuts (partition-parallel
passes + overlay pass over escaped dirt) → U3 overlay labels →
U4 post-boundary → U5 cross-boundary, each partition-parallel.
Queries per stage: BiDijkstra → CH → post-boundary (disB + overlay
concatenation across partitions) → full H2H.
"""
from __future__ import annotations

import math
import time

import numpy as np

from repro.graphs.graph import Graph
from repro.core.ch import ch_query_rows
from repro.core.dijkstra import bidijkstra
from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import build_labels, build_treedec, h2h_query, update_shortcuts
from repro.partition.tdpartition import TDPartitionResult, td_partition

INF = math.inf


class PostMHLIndex:
    """PostMHL over one global tree decomposition."""

    def __init__(
        self,
        graph: Graph,
        *,
        tau: int,
        k_e: int,
        beta_l: float = 0.1,
        beta_u: float = 2.0,
        build: bool = True,
    ):
        self.graph = graph
        t0 = time.perf_counter()
        self.td = build_treedec(graph)
        self.t_tree = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.tdp: TDPartitionResult = td_partition(self.td, tau, k_e, beta_l, beta_u)
        self.t_partition = time.perf_counter() - t0

        self.k = self.tdp.k
        self.novl = [int(self.td.depth[r]) for r in self.tdp.roots]
        self.disB: list[np.ndarray | None] = [None] * graph.n
        self.dis: list[np.ndarray | None] = [None] * graph.n
        self.build_times: dict[str, object] = {}
        if build:
            self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        t0 = time.perf_counter()
        build_labels(self.td, active=self.tdp.overlay, dis=self.dis)
        t_overlay = time.perf_counter() - t0
        t_post: dict[int, float] = {}
        t_cross: dict[int, float] = {}
        for i in range(self.k):
            t0 = time.perf_counter()
            self._build_post(i)
            t_post[i] = time.perf_counter() - t0
            t0 = time.perf_counter()
            self._build_cross(i)
            t_cross[i] = time.perf_counter() - t0
        self.build_times = {
            "tree": self.t_tree,
            "partition": self.t_partition,
            "overlay": t_overlay,
            "post": t_post,
            "cross": t_cross,
        }

    def _build_post(self, i: int) -> None:
        """Post-boundary phase (Alg. 4 lines 5–31): boundary + in-partition columns.

        The H2H DP on the columns ``pos[root]`` (the depths of B_i) and
        ``[novl, h)`` reads only overlay labels of B_i — every overlay
        neighbor of an in-partition vertex lies in B_i — and columns of
        this same window, so it needs nothing but the overlay index
        (Theorem 4). ``disB`` is the boundary part of the result.
        """
        td = self.td
        r = self.tdp.roots[i]
        cols = np.concatenate((td.pos[r], np.arange(self.novl[i], td.tree_height())))
        build_labels(td, roots=[r], dis=self.dis, cols=cols)
        for v in self.tdp.parts[i]:
            self.disB[v] = self.dis[v][td.pos[r]]

    def _build_cross(self, i: int) -> None:
        """Cross-boundary phase: overlay-ancestor columns [0, novl)."""
        build_labels(self.td, roots=[self.tdp.roots[i]], dis=self.dis, cols=np.arange(self.novl[i]))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_bidij(self, s: int, t: int) -> float:
        return bidijkstra(self.graph, s, t)

    def query_pch(self, s: int, t: int) -> float:
        td = self.td
        return ch_query_rows(lambda v: zip(td.neigh[v], td.sc[v]), s, t)

    def query_postboundary(self, s: int, t: int) -> float:
        """Q-Stage 3: post-boundary + overlay index (cross entries stale)."""
        if s == t:
            return 0.0
        i, j = int(self.tdp.pid[s]), int(self.tdp.pid[t])
        td = self.td
        if i == -1 and j == -1:
            return h2h_query(td, self.dis, s, t)
        if i == j:
            # Same partition: LCA separator splits into in-partition
            # members (post entries) and boundary members (disB covers
            # all of B_i ⊇ them).
            a = td.lca(s, t)
            novl = self.novl[i]
            if a == s:
                best = float(self.dis[t][td.depth[s]])
            elif a == t:
                best = float(self.dis[s][td.depth[t]])
            else:
                idx = td.qpos[a]
                idx = idx[idx >= novl]
                best = float((self.dis[s][idx] + self.dis[t][idx]).min()) if len(idx) else INF
            best = min(best, float((self.disB[s] + self.disB[t]).min()))
            return best
        if j == -1:
            s, t, i, j = t, s, j, i  # make s the overlay endpoint if any
        if i == -1:
            # overlay ↔ partition j: concatenate through B_j.
            best = INF
            for jj, b in enumerate(self.tdp.boundary[j]):
                d = h2h_query(td, self.dis, s, b) + self.disB[t][jj]
                if d < best:
                    best = d
            return best
        # partition i ↔ partition j.
        best = INF
        for ii, b1 in enumerate(self.tdp.boundary[i]):
            ds = self.disB[s][ii]
            if ds == INF:
                continue
            for jj, b2 in enumerate(self.tdp.boundary[j]):
                d = ds + h2h_query(td, self.dis, b1, b2) + self.disB[t][jj]
                if d < best:
                    best = d
        return best

    def query(self, s: int, t: int) -> float:
        """Q-Stage 4 (final): full H2H query — equivalent to DH2H."""
        return h2h_query(self.td, self.dis, s, t)

    # Query stages after BiDijkstra, in go-live order (U2, U4, U5).
    stages = (("pch", query_pch), ("postboundary", query_postboundary), ("h2h", query))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def apply_batch(self, updates: list[tuple[int, int, float]]) -> dict:
        """Run every U-stage; returns per-stage / per-task durations."""
        return dict(self.maintain(updates))

    def maintain(self, updates: list[tuple[int, int, float]]):
        """U-Stages 1–5 as a generator of ``(key, durations)``.

        Each yield comes when a U-stage has finished, so the query stage
        it enables is exact while the later ones are still stale (Fig. 7).
        """
        td = self.td

        # ---- U1 ------------------------------------------------------
        t0 = time.perf_counter()
        self.graph.apply_updates(updates)
        part_edges: dict[int, list[tuple[int, int]]] = {}
        ov_edges: list[tuple[int, int]] = []
        for a, b, _ in updates:
            owner = a if td.rank[a] < td.rank[b] else b
            i = int(self.tdp.pid[owner])
            if i == -1:
                ov_edges.append((a, b))
            else:
                part_edges.setdefault(i, []).append((a, b))
        yield "u1", time.perf_counter() - t0

        # ---- U2: shortcuts, partition-parallel then overlay ---------
        u2_parts: dict[int, float] = {}
        seed: dict[int, set[int]] = {}
        part_affected: set[int] = set()
        part_sets = [set(p) for p in self.tdp.parts]
        for i, edges in part_edges.items():
            t0 = time.perf_counter()
            res = update_shortcuts(td, self.graph, edges, subset=part_sets[i])
            if res.affected:
                part_affected.add(i)
            for o, idxs in res.escaped.items():
                seed.setdefault(o, set()).update(idxs)
            u2_parts[i] = time.perf_counter() - t0
        t0 = time.perf_counter()
        res_o = update_shortcuts(td, self.graph, ov_edges, seed_dirty=seed)
        yield "u2", {"parts": u2_parts, "overlay": time.perf_counter() - t0}

        # ---- U3: overlay label update -------------------------------
        t0 = time.perf_counter()
        ov_affected = {v for v in res_o.affected if v in self.tdp.overlay}
        roots = prune_to_subtree_roots(td, ov_affected)
        # changed_ov: overlay vertex -> mask of the label columns whose
        # values changed, so downstream stages react to *actual* value
        # changes, not recomputation alone (full recomputation stores
        # fresh rows, so the old ones survive as the snapshot).
        changed_ov: dict[int, np.ndarray] = {}
        if roots:
            region: list[int] = []
            stack = list(roots)
            while stack:
                v = stack.pop()
                if v in self.tdp.overlay:
                    region.append(v)
                    stack.extend(td.children[v])
            old = {v: self.dis[v] for v in region}
            build_labels(td, roots=roots, active=self.tdp.overlay, dis=self.dis)
            for v in region:
                new = self.dis[v]
                mask = np.ones(len(new), dtype=bool) if old[v] is None else old[v] != new
                if mask.any():
                    changed_ov[v] = mask
        yield "u3", {"overlay": time.perf_counter() - t0}

        # ---- U4 + U5: post-/cross-boundary per partition ------------
        # Overlay-pass affected owners can also sit *inside* partitions
        # (an escaped pair's recomputation never does, but the overlay
        # pass only touches overlay owners); partition-internal label
        # damage comes from part_affected.
        post: list[int] = []
        cross: list[int] = []
        for i in range(self.k):
            internal = i in part_affected or i in part_edges
            # The post-boundary window reads only the labels of B_i. The
            # cross-boundary window also reads d(b, a) for each overlay
            # ancestor a of the root below b ∈ B_i: column depth(b) of
            # a's row, and a need not be in B_i.
            if internal or any(b in changed_ov for b in self.tdp.boundary[i]):
                post.append(i)
                cross.append(i)
                continue
            pb = td.pos[self.tdp.roots[i]]
            if any(
                changed_ov[a][pb[pb < len(changed_ov[a])]].any()
                for a in td.ancestors(self.tdp.roots[i])[:-1] if a in changed_ov
            ):
                cross.append(i)
        # Neither window reads a column that only the other computes (both
        # cover the depths of B_i, from the same overlay labels), so every
        # post(i) can finish before any cross(i) starts.
        u4_parts: dict[int, float] = {}
        for i in post:
            t0 = time.perf_counter()
            self._build_post(i)
            u4_parts[i] = time.perf_counter() - t0
        yield "u4", {"parts": u4_parts}
        u5_parts: dict[int, float] = {}
        for i in cross:
            t0 = time.perf_counter()
            self._build_cross(i)
            u5_parts[i] = time.perf_counter() - t0
        yield "u5", {"parts": u5_parts}

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Label + shortcut + boundary-array entries (Theorem 5 shape)."""
        total = sum(len(nb) for nb in self.td.neigh)
        total += sum(len(d) for d in self.dis if d is not None)
        total += sum(len(b) for b in self.disB if b is not None)
        return total

    def overlay_size(self) -> int:
        return len(self.tdp.overlay)
