"""PMHL: Partitioned Multi-stage Hub Labeling (paper §V).

The index aggregates, per partition G_i with boundary B_i:

- the **no-boundary** index: boundary-first partition MHL ``L_i`` (tree
  ``T_i`` + shortcut arrays + labels) and the overlay MHL ``~L`` built on
  the overlay graph assembled from residual boundary shortcuts
  (Theorem 2's optimization — no Dijkstra, no L_i queries) + inter-edges;
- the **post-boundary** index ``L'_i``: same elimination order on the
  extended partition ``G'_i`` (boundary pairs pinned to their global
  distances ``D_i`` obtained from ``~L``), giving globally-correct
  same-partition queries;
- the **cross-boundary** index ``L*``: per-vertex global 2-hop hub
  arrays obtained by concatenating boundary arrays ``disB`` with the
  overlay labels (Lemma 2), eliminating distance concatenation for
  cross-partition queries.

Query stages (fastest *available* index answers):
  1 BiDijkstra → 2 PCH → 3 no-boundary → 4 post-boundary → 5 cross-boundary
Update stages U1–U5 mirror §V-D; ``maintain`` yields after each one,
when the query stage it enables is exact, with per-task durations so
stage wall-clock under p workers is an LPT schedule (DESIGN.md §2).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.core.ch import ch_query_rows
from repro.core.dijkstra import bidijkstra
from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import (
    TreeDec,
    build_labels,
    build_treedec,
    h2h_query,
    recompute_shortcut,
    update_shortcuts,
)
from repro.partition.partitioner import Partition, partition_graph

INF = math.inf


def subtree_nodes(td: TreeDec, roots: list[int]) -> set[int]:
    """All nodes in the subtrees under ``roots`` (the recomputed set)."""
    out: set[int] = set()
    stack = list(roots)
    while stack:
        v = stack.pop()
        out.add(v)
        stack.extend(td.children[v])
    return out


def depth_levels(
    td: TreeDec, skip: set[int], pad: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per tree depth, ascending: ``(vertices, neighbors, flat positions)``.

    Covers the vertices not in ``skip``; the neighbor and shortcut
    position rows are padded to the level's widest row with ``pad`` and
    position 0. Both are fixed by the elimination order, so weight
    updates reuse them and only re-gather ``td.flat``.
    """
    by_depth: dict[int, list[int]] = {}
    for v in range(td.n):
        if v not in skip:
            by_depth.setdefault(int(td.depth[v]), []).append(v)
    levels = []
    for d in sorted(by_depth):
        vs = by_depth[d]
        width = max(len(td.neigh[v]) for v in vs)
        nbr = np.full((len(vs), width), pad, dtype=np.int64)
        fpos = np.zeros((len(vs), width), dtype=np.int64)
        for r, v in enumerate(vs):
            k = len(td.neigh[v])
            nbr[r, :k] = td.neigh[v]
            fpos[r, :k] = np.arange(td.flat_off[v], td.flat_off[v] + k)
        levels.append((np.array(vs, dtype=np.int64), nbr, fpos))
    return levels


def hub_query(h1: np.ndarray, d1: np.ndarray, h2: np.ndarray, d2: np.ndarray) -> float:
    """2-hop-cover query over two sorted hub arrays."""
    common, i1, i2 = np.intersect1d(h1, h2, assume_unique=True, return_indices=True)
    if len(common) == 0:
        return INF
    return float((d1[i1] + d2[i2]).min())


@dataclass
class PartitionUnit:
    """All per-partition state of PMHL."""

    pid: int
    vertices: list[int]
    loc: dict[int, int]
    gl: Graph                      # local partition graph (intra edges)
    b_local: list[int] = field(default_factory=list)   # boundary, overlay-rank order
    b_global: list[int] = field(default_factory=list)
    b_set: set[int] = field(default_factory=set)       # local boundary set
    elim_order: list[int] = field(default_factory=list)
    td: TreeDec | None = None                          # no-boundary
    dis: list | None = None
    residual: dict[tuple[int, int], float] = field(default_factory=dict)
    gpost: Graph | None = None                         # extended partition G'_i
    td_post: TreeDec | None = None
    dis_post: list | None = None
    D: np.ndarray | None = None                        # |B|×|B| global boundary dists
    disB: np.ndarray | None = None                     # n_i × |B_i| boundary distances
    sweep: list | None = None                          # disB depth levels (depth_levels)
    lstar: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


class PMHLIndex:
    """PMHL over a partitioned road network.

    ``level`` selects how much of the index family is built/maintained —
    this is how the paper's PSP baselines fall out of the same code:

    - ``"shortcut"``: no-boundary shortcut arrays only = **N-CH-P** [35]
      (update-oriented PSP with DCH underlying; query = PCH);
    - ``"post"``: through the post-boundary index = **P-TD-P** [35]
      (query-oriented PSP with DH2H underlying; query = post-boundary);
    - ``"full"``: everything including the cross-boundary L* = PMHL.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        coords: np.ndarray | None = None,
        *,
        build: bool = True,
        level: str = "full",
    ):
        assert level in ("shortcut", "post", "full")
        self.level = level
        self.graph = graph
        self.k = k
        self.part: Partition = partition_graph(graph, k, coords)
        self.units: list[PartitionUnit] = []
        self.bhubs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.build_times: dict[str, object] = {}
        self._init_units()
        if build:
            self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _init_units(self) -> None:
        for i in range(self.k):
            gl, loc = self.graph.subgraph(self.part.parts[i])
            u = PartitionUnit(pid=i, vertices=self.part.parts[i], loc=loc, gl=gl)
            u.b_global = list(self.part.boundary[i])
            u.b_set = {loc[b] for b in u.b_global}
            self.units.append(u)

    def build(self) -> None:
        t_parts1: dict[int, float] = {}
        # Step 1 (phase A): contract non-boundary vertices by MDE, snapshot
        # the residual boundary graph (Theorem 2's overlay shortcuts).
        pass1 = []
        for u in self.units:
            t0 = time.perf_counter()
            td1 = build_treedec(u.gl, forced_last=u.b_set, snapshot_residual=True)
            t_parts1[u.pid] = time.perf_counter() - t0
            nonb_order = [v for v in td1.order if v not in u.b_set]
            pass1.append((td1.residual, nonb_order))

        # Step 2+3: overlay graph from residual + inter edges; overlay MHL.
        t0 = time.perf_counter()
        self.ov_vertices = self.part.boundary_all
        self.o_loc = {g: i for i, g in enumerate(self.ov_vertices)}
        og = Graph(len(self.ov_vertices))
        for u, (residual, _) in zip(self.units, pass1):
            glob = u.vertices
            for (l1, l2), w in residual.items():
                og.add_edge(self.o_loc[glob[l1]], self.o_loc[glob[l2]], w)
        for a, b, _ in self.part.inter_edges:
            og.add_edge(self.o_loc[a], self.o_loc[b], self.graph.adj[a][b])
        self.og = og
        self.td_o = build_treedec(og)
        self.dis_o = build_labels(self.td_o) if self.level != "shortcut" else None
        t_overlay = time.perf_counter() - t0

        # Step 1 (phase B): rebuild each partition MHL with the full
        # boundary-first order (boundary relative order = overlay order).
        t_parts2: dict[int, float] = {}
        for u, (residual, nonb_order) in zip(self.units, pass1):
            t0 = time.perf_counter()
            b_sorted = sorted(u.b_set, key=lambda l: int(self.td_o.rank[self.o_loc[u.vertices[l]]]))
            u.b_local = b_sorted
            u.elim_order = nonb_order + b_sorted
            u.td = build_treedec(u.gl, fixed_order=u.elim_order)
            u.dis = build_labels(u.td) if self.level != "shortcut" else None
            u.residual = dict(residual)
            t_parts2[u.pid] = time.perf_counter() - t0

        if self.level == "shortcut":
            self.build_times = {
                "parts_phase_a": t_parts1,
                "overlay": t_overlay,
                "parts_phase_b": t_parts2,
            }
            return

        # Steps 4+5: post-boundary indexes L'_i.
        t_post: dict[int, float] = {}
        for u in self.units:
            t0 = time.perf_counter()
            u.D = self._boundary_pairs_matrix(u)
            u.gpost = u.gl.copy()
            for a in range(len(u.b_local)):
                for b in range(a + 1, len(u.b_local)):
                    u.gpost.add_edge(u.b_local[a], u.b_local[b], float(u.D[a, b]))
            u.td_post = build_treedec(u.gpost, fixed_order=u.elim_order)
            u.dis_post = build_labels(u.td_post)
            t_post[u.pid] = time.perf_counter() - t0

        if self.level == "post":
            self.build_times = {
                "parts_phase_a": t_parts1,
                "overlay": t_overlay,
                "parts_phase_b": t_parts2,
                "post": t_post,
            }
            return

        # Step 6: cross-boundary index L*.
        t0 = time.perf_counter()
        self._build_boundary_hubs(self.ov_vertices)
        t_bhubs = time.perf_counter() - t0
        t_cross: dict[int, float] = {}
        for u in self.units:
            t0 = time.perf_counter()
            u.sweep = depth_levels(u.td_post, u.b_set, pad=u.gl.n)
            self._build_cross(u)
            t_cross[u.pid] = time.perf_counter() - t0

        self.build_times = {
            "parts_phase_a": t_parts1,
            "overlay": t_overlay,
            "parts_phase_b": t_parts2,
            "post": t_post,
            "boundary_hubs": t_bhubs,
            "cross": t_cross,
        }

    def _boundary_pairs_matrix(self, u: PartitionUnit) -> np.ndarray:
        """All-pair global boundary distances D_i via overlay queries."""
        nb = len(u.b_local)
        D = np.zeros((nb, nb), dtype=np.float64)
        ol = [self.o_loc[u.vertices[l]] for l in u.b_local]
        for a in range(nb):
            for b in range(a + 1, nb):
                D[a, b] = D[b, a] = h2h_query(self.td_o, self.dis_o, ol[a], ol[b])
        return D

    def _build_boundary_hubs(self, changed: list[int]) -> None:
        """(Re)build the L* hub arrays of boundary vertices = overlay labels."""
        for g in changed:
            o = self.o_loc[g]
            anc = np.array([self.ov_vertices[a] for a in self.td_o.ancestors(o)], dtype=np.int64)
            dist = np.asarray(self.dis_o[o], dtype=np.float64)
            srt = np.argsort(anc)
            self.bhubs[g] = (anc[srt], dist[srt])

    def _build_cross(self, u: PartitionUnit) -> None:
        """Cross-boundary index of one partition: ``disB``, then L*.

        ``disB[v, j] = d_G(v, b_j)`` for all b_j ∈ B_i is a top-down DP over
        the post-boundary tree: a boundary neighbor contributes its (global)
        D row, a non-boundary neighbor its own disB row — Algorithm 4 lines
        13–19 specialized to PMHL. Neighbors are tree ancestors, so each
        depth level is one gather-min over the rows of shallower levels
        (row ``n_i`` is the INF pad).

        L* (Lemma 2): every non-boundary vertex has the same hub set
        ``H_i``, the union of the overlay ancestors of ``B_i``, so all hub
        rows are one min-plus product ``min_j disB[:, j] + BH[j]``, with
        ``BH[j]`` b_j's overlay label spread over ``H_i`` (INF where b_j
        lacks the hub). A partition with no boundary reaches no other
        partition: its hub arrays are empty, so cross-partition queries
        are INF.
        """
        n, flat = u.gl.n, u.td_post.flat
        buf = np.full((n + 1, len(u.b_local)), INF, dtype=np.float64)
        buf[u.b_local] = u.D
        for vs, nbr, fpos in u.sweep:
            buf[vs] = (flat[fpos][:, :, None] + buf[nbr]).min(axis=1, initial=INF)
        u.disB = buf[:n]

        b_hub = [self.bhubs[u.vertices[l]] for l in u.b_local]
        hubs = np.unique(np.concatenate([h for h, _ in b_hub] or [np.empty(0, dtype=np.int64)]))
        rows = np.full((n, len(hubs)), INF, dtype=np.float64)
        for j, (h, d) in enumerate(b_hub):
            bh = np.full(len(hubs), INF, dtype=np.float64)
            bh[np.searchsorted(hubs, h)] = d
            np.minimum(rows, u.disB[:, j, None] + bh, out=rows)
        u.lstar = {v: (hubs, rows[v]) for v in range(n) if v not in u.b_set}

    # ------------------------------------------------------------------
    # queries (stages 1..5)
    # ------------------------------------------------------------------
    def _pch_rows(self, v: int):
        """Upward shortcut rows of the union CH (partition ∪ overlay)."""
        i = int(self.part.pid[v])
        u = self.units[i]
        l = u.loc[v]
        out: dict[int, float] = {}
        for x, w in zip(u.td.neigh[l], u.td.sc[l]):
            g = u.vertices[x]
            if w < out.get(g, INF):
                out[g] = float(w)
        if l in u.b_set:
            o = self.o_loc[v]
            for x, w in zip(self.td_o.neigh[o], self.td_o.sc[o]):
                g = self.ov_vertices[x]
                if w < out.get(g, INF):
                    out[g] = float(w)
        return out.items()

    def query_bidij(self, s: int, t: int) -> float:
        return bidijkstra(self.graph, s, t)

    def query_pch(self, s: int, t: int) -> float:
        return ch_query_rows(self._pch_rows, s, t)

    def _ov_query_g(self, b1: int, b2: int) -> float:
        return h2h_query(self.td_o, self.dis_o, self.o_loc[b1], self.o_loc[b2])

    def _concat(self, s: int, t: int, td_attr: str, dis_attr: str) -> float:
        """Boundary-concatenated cross/same-partition distance."""
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        ui, uj = self.units[i], self.units[j]
        tdi, disi = getattr(ui, td_attr), getattr(ui, dis_attr)
        tdj, disj = getattr(uj, td_attr), getattr(uj, dis_attr)
        ls, lt = ui.loc[s], uj.loc[t]
        ds = [h2h_query(tdi, disi, ls, b) for b in ui.b_local]
        dt = [h2h_query(tdj, disj, lt, b) for b in uj.b_local]
        best = INF
        for a, bs in enumerate(ui.b_local):
            if ds[a] == INF:
                continue
            gb1 = ui.vertices[bs]
            for b, bt in enumerate(uj.b_local):
                if dt[b] == INF:
                    continue
                d = ds[a] + self._ov_query_g(gb1, uj.vertices[bt]) + dt[b]
                if d < best:
                    best = d
        return best

    def query_noboundary(self, s: int, t: int) -> float:
        """Q-Stage 3: L_i + ~L with distance concatenation (slow)."""
        if s == t:
            return 0.0
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        via = self._concat(s, t, "td", "dis")
        if i == j:
            u = self.units[i]
            local = h2h_query(u.td, u.dis, u.loc[s], u.loc[t])
            return min(local, via)
        return via

    def query_postboundary(self, s: int, t: int) -> float:
        """Q-Stage 4: fast same-partition via L'_i; cross still concatenates."""
        if s == t:
            return 0.0
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        if i == j:
            u = self.units[i]
            return h2h_query(u.td_post, u.dis_post, u.loc[s], u.loc[t])
        return self._concat(s, t, "td_post", "dis_post")

    def _hubs_of(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        i = int(self.part.pid[v])
        u = self.units[i]
        l = u.loc[v]
        if l in u.b_set:
            return self.bhubs[v]
        return u.lstar[l]

    def query_cross(self, s: int, t: int) -> float:
        """Q-Stage 5: same-partition via L'_i, cross-partition via L*."""
        if s == t:
            return 0.0
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        if i == j:
            u = self.units[i]
            return h2h_query(u.td_post, u.dis_post, u.loc[s], u.loc[t])
        h1, d1 = self._hubs_of(s)
        h2, d2 = self._hubs_of(t)
        return hub_query(h1, d1, h2, d2)

    query = query_cross  # final-stage (fully updated) query entry point
    # Query stages after BiDijkstra, in go-live order (U2..U5).
    stages = (
        ("pch", query_pch),
        ("noboundary", query_noboundary),
        ("postboundary", query_postboundary),
        ("cross", query_cross),
    )

    # ------------------------------------------------------------------
    # maintenance (U-Stages 1..5)
    # ------------------------------------------------------------------
    def apply_batch(self, updates: list[tuple[int, int, float]]) -> dict:
        """Run every U-stage; returns per-stage / per-task durations."""
        return dict(self.maintain(updates))

    def maintain(self, updates: list[tuple[int, int, float]]):
        """U-Stages 1–5 (up to ``level``) as a generator of ``(key, durations)``.

        Each yield comes when a U-stage has finished, so the query stage
        it enables is exact while the later ones are still stale (Fig. 7).
        """
        # ---- U1: on-spot edge update --------------------------------
        t0 = time.perf_counter()
        self.graph.apply_updates(updates)
        intra: dict[int, list[tuple[int, int, float]]] = {}
        inter: list[tuple[int, int, float]] = []
        for a, b, w in updates:
            i, j = int(self.part.pid[a]), int(self.part.pid[b])
            if i == j:
                intra.setdefault(i, []).append((a, b, w))
            else:
                inter.append((a, b, w))
        yield "u1", time.perf_counter() - t0

        # ---- U2: no-boundary shortcut update ------------------------
        u2_parts: dict[int, float] = {}
        ov_edge_changes: list[tuple[int, int]] = []
        affected_lab: dict[int, set[int]] = {}
        for i, ups in intra.items():
            u = self.units[i]
            t0 = time.perf_counter()
            loc_edges = []
            for a, b, w in ups:
                la, lb = u.loc[a], u.loc[b]
                u.gl.set_weight(la, lb, w)
                loc_edges.append((la, lb))
            res = update_shortcuts(u.td, u.gl, loc_edges)
            affected_lab[i] = res.affected
            # Theorem-2 residuals: refresh overlay base edges whose
            # residual (boundary-contributor-free) value changed.
            for (a, b) in res.recomputed_pairs:
                if a in u.b_set and b in u.b_set:
                    key = (a, b) if a < b else (b, a)
                    if key not in u.residual:
                        continue
                    nv = recompute_shortcut(u.td, u.gl, a, b, exclude=u.b_set)
                    if nv != u.residual[key]:
                        u.residual[key] = nv
                        oa = self.o_loc[u.vertices[a]]
                        ob = self.o_loc[u.vertices[b]]
                        if self.og.adj[oa].get(ob, INF) != nv:
                            self.og.set_weight(oa, ob, nv)
                            ov_edge_changes.append((oa, ob))
            u2_parts[i] = time.perf_counter() - t0
        t0 = time.perf_counter()
        for a, b, w in inter:
            oa, ob = self.o_loc[a], self.o_loc[b]
            self.og.set_weight(oa, ob, w)
            ov_edge_changes.append((oa, ob))
        res_o = update_shortcuts(self.td_o, self.og, ov_edge_changes)
        yield "u2", {"parts": u2_parts, "overlay": time.perf_counter() - t0}
        if self.level == "shortcut":
            return

        # ---- U3: no-boundary label update ---------------------------
        u3_parts: dict[int, float] = {}
        for i, aff in affected_lab.items():
            u = self.units[i]
            t0 = time.perf_counter()
            roots = prune_to_subtree_roots(u.td, aff)
            if roots:
                build_labels(u.td, roots=roots, dis=u.dis)
            u3_parts[i] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ov_roots = prune_to_subtree_roots(self.td_o, res_o.affected)
        changed_ov: set[int] = set()
        if ov_roots:
            region = subtree_nodes(self.td_o, ov_roots)
            old = {v: self.dis_o[v] for v in region}
            build_labels(self.td_o, roots=ov_roots, dis=self.dis_o)
            changed_ov = {
                v for v in region
                if old[v] is None or not np.array_equal(old[v], self.dis_o[v])
            }
        yield "u3", {"parts": u3_parts, "overlay": time.perf_counter() - t0}

        # ---- U4: post-boundary index update -------------------------
        changed_ov_g = {self.ov_vertices[o] for o in changed_ov}
        u4_parts: dict[int, float] = {}
        post_label_changed: set[int] = set()
        for u in self.units:
            i = u.pid
            d_may_change = any(g in changed_ov_g for g in u.b_global)
            if i not in intra and not d_may_change:
                continue
            t0 = time.perf_counter()
            loc_edges = []
            for a, b, w in intra.get(i, ()):
                la, lb = u.loc[a], u.loc[b]
                if la in u.b_set and lb in u.b_set:
                    continue  # boundary-pair weight is pinned to D below
                u.gpost.set_weight(la, lb, w)
                loc_edges.append((la, lb))
            if d_may_change:
                Dn = self._boundary_pairs_matrix(u)
                for a in range(len(u.b_local)):
                    for b in range(a + 1, len(u.b_local)):
                        if Dn[a, b] != u.D[a, b]:
                            u.gpost.set_weight(u.b_local[a], u.b_local[b], float(Dn[a, b]))
                            loc_edges.append((u.b_local[a], u.b_local[b]))
                u.D = Dn
            res_p = update_shortcuts(u.td_post, u.gpost, loc_edges)
            roots = prune_to_subtree_roots(u.td_post, res_p.affected)
            if roots:
                build_labels(u.td_post, roots=roots, dis=u.dis_post)
            if roots or res_p.affected:
                post_label_changed.add(i)
            u4_parts[i] = time.perf_counter() - t0
        yield "u4", {"parts": u4_parts}
        if self.level == "post":
            return

        # ---- U5: cross-boundary index update ------------------------
        t0 = time.perf_counter()
        if changed_ov_g:
            self._build_boundary_hubs(sorted(changed_ov_g))
        t_bh = time.perf_counter() - t0
        u5_parts: dict[int, float] = {}
        for u in self.units:
            i = u.pid
            if i not in post_label_changed and not any(g in changed_ov_g for g in u.b_global):
                continue
            t0 = time.perf_counter()
            self._build_cross(u)
            u5_parts[i] = time.perf_counter() - t0
        yield "u5", {"parts": u5_parts, "boundary_hubs": t_bh}

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Total index entries across all PMHL components."""
        total = 0
        for u in self.units:
            total += sum(len(nb) for nb in u.td.neigh)
            if u.dis is not None:
                total += sum(len(d) for d in u.dis)
            if u.td_post is not None:
                total += sum(len(nb) for nb in u.td_post.neigh)
                total += sum(len(d) for d in u.dis_post)
            if u.disB is not None:
                total += sum(len(r) for r in u.disB if r is not None)
            total += sum(len(h) for h, _ in u.lstar.values())
        total += sum(len(nb) for nb in self.td_o.neigh)
        if self.dis_o is not None:
            total += sum(len(d) for d in self.dis_o)
        total += sum(len(h) for h, _ in self.bhubs.values())
        return total
