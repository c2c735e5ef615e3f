"""PMHL: all five query stages exact, Theorem 2, Lemma 2, maintenance."""
import math

import pytest

from repro.core.dijkstra import dijkstra, floyd_warshall
from repro.graphs.generator import update_batches
from repro.graphs.graph import Graph
from repro.psp.pmhl import PMHLIndex, hub_query
from tests.util import pairs_for, small_case, updated_case

import numpy as np


@pytest.fixture(scope="module", params=[(0, 3), (1, 4), (2, 5)])
def built(request):
    seed, k = request.param
    g, coords, fw = small_case(seed, 20, 5)
    return PMHLIndex(g.copy(), k, coords), g, fw, seed


STAGES = ["query_pch", "query_noboundary", "query_postboundary", "query_cross"]


@pytest.mark.parametrize("stage", STAGES)
def test_stage_queries_exact(built, stage):
    idx, g, fw, seed = built
    q = getattr(idx, stage)
    for s, t in pairs_for(g.n, 50, seed):
        assert q(s, t) == pytest.approx(fw[s][t]), (stage, s, t)


def test_same_partition_queries(built):
    idx, g, fw, seed = built
    for i in range(idx.k):
        vs = idx.part.parts[i]
        for s, t in zip(vs[:6], vs[-6:]):
            if s == t:
                continue
            for stage in STAGES:
                assert getattr(idx, stage)(s, t) == pytest.approx(fw[s][t])


def test_theorem2_overlay_preserves_boundary_distances(built):
    """Overlay H2H distances between boundary vertices = global ones."""
    idx, g, fw, _ = built
    bs = idx.part.boundary_all
    for a in bs[::3]:
        for b in bs[::4]:
            if a != b:
                assert idx._ov_query_g(a, b) == pytest.approx(fw[a][b])


def test_lemma2_cross_boundary_2hop_cover(built):
    """L* hub arrays satisfy the 2-hop cover for cross-partition pairs."""
    idx, g, fw, seed = built
    cnt = 0
    for s, t in pairs_for(g.n, 120, seed + 9):
        if idx.part.pid[s] == idx.part.pid[t]:
            continue
        h1, d1 = idx._hubs_of(s)
        h2, d2 = idx._hubs_of(t)
        assert hub_query(h1, d1, h2, d2) == pytest.approx(fw[s][t])
        cnt += 1
    assert cnt > 10


def test_lstar_entries_upper_bound_distance(built):
    """Every L* label entry is a real path length (≥ true distance)."""
    idx, g, fw, _ = built
    u = idx.units[0]
    for v, (hubs, dists) in list(u.lstar.items())[:10]:
        gv = u.vertices[v]
        for h, d in zip(hubs, dists):
            if math.isfinite(d):
                assert d >= fw[gv][h] - 1e-9


def test_boundary_first_property(built):
    """In each partition tree, boundary ranks above non-boundary."""
    idx, _, _, _ = built
    for u in idx.units:
        if not u.b_set:
            continue
        max_nb = max(
            (u.td.rank[l] for l in range(u.gl.n) if l not in u.b_set), default=-1
        )
        assert all(u.td.rank[b] > max_nb for b in u.b_set)


def test_disB_values_exact(built):
    idx, g, fw, _ = built
    for u in idx.units:
        for v in range(0, u.gl.n, 5):
            if v in u.b_set or u.disB[v] is None:
                continue
            gv = u.vertices[v]
            for j, b in enumerate(u.b_local):
                assert u.disB[v][j] == pytest.approx(fw[gv][u.vertices[b]])


@pytest.mark.parametrize("seed,k", [(0, 3), (1, 4)])
def test_maintenance_all_stages(seed, k):
    g, coords, ups, truths = updated_case(seed, 20, 5)
    idx = PMHLIndex(g.copy(), k, coords)
    for batch, fw in zip(ups, truths):
        times = idx.apply_batch(batch)
        assert {"u1", "u2", "u3", "u4", "u5"} <= set(times)
        for s, t in pairs_for(g.n, 25, seed + 7):
            d = fw[s][t]
            assert idx.query_bidij(s, t) == pytest.approx(d)
            for stage in STAGES:
                assert getattr(idx, stage)(s, t) == pytest.approx(d), stage


def test_maintenance_increase_only():
    """Pure weight-increase batch (the hard DH2H direction)."""
    g, coords, fw0 = small_case(6, 20, 5)
    idx = PMHLIndex(g.copy(), 4, coords)
    batch = [(u, v, w * 3) for u, v, w in list(g.edges())[::4]]
    idx.apply_batch(batch)
    g2 = g.copy()
    g2.apply_updates(batch)
    fw = floyd_warshall(g2)
    for s, t in pairs_for(g.n, 40, 3):
        for stage in STAGES:
            assert getattr(idx, stage)(s, t) == pytest.approx(fw[s][t]), stage


def test_index_size_grows_with_level():
    g, coords, _ = small_case(0, 20, 5)
    full = PMHLIndex(g.copy(), 4, coords)
    assert full.index_size() > 0
    assert full.build_times["post"] and full.build_times["cross"]


def _all_stages_exact(idx, graph, pairs):
    for s, t in pairs:
        d = dijkstra(graph, s).get(t, math.inf)
        assert idx.query_bidij(s, t) == pytest.approx(d)
        for stage in STAGES:
            assert getattr(idx, stage)(s, t) == pytest.approx(d), (stage, s, t)


def test_single_partition_no_boundary():
    """k=1: the one partition has no boundary; every stage stays exact."""
    g, coords, ups, _ = updated_case(0, 20, 5)
    idx = PMHLIndex(g.copy(), 1, coords)
    assert idx.part.boundary == [[]]
    _all_stages_exact(idx, idx.graph, pairs_for(g.n, 30, 1))
    for batch in ups:
        idx.apply_batch(batch)
        _all_stages_exact(idx, idx.graph, pairs_for(g.n, 30, 2))


def _two_components():
    from repro.graphs.generator import road_network

    g1, _ = road_network(8, 4, seed=1)
    n1 = g1.n
    return Graph(2 * n1, [*g1.edges(), *[(u + n1, v + n1, w) for u, v, w in g1.edges()]])


def test_component_partition_no_boundary():
    """Two components, BFS partitioner: one component becomes a partition
    with no boundary, and pairs across components are INF at every stage."""
    g = _two_components()
    idx = PMHLIndex(g.copy(), 4)
    assert [] in idx.part.boundary
    pairs = [(s, t) for s in range(0, g.n, 5) for t in range(1, g.n, 7) if s != t]
    assert any(dijkstra(g, s).get(t) is None for s, t in pairs)
    _all_stages_exact(idx, idx.graph, pairs)
    for batch in update_batches(g, batches=2, volume=15, seed=4):
        idx.apply_batch(batch)
        _all_stages_exact(idx, idx.graph, pairs)


def test_hub_query_disjoint_returns_inf():
    h1 = np.array([1, 2]); d1 = np.array([1.0, 2.0])
    h2 = np.array([3, 4]); d2 = np.array([1.0, 2.0])
    assert hub_query(h1, d1, h2, d2) == math.inf


def _reference_cross(idx, u):
    """Per-vertex disB rows and L* arrays: the loop form of the kernels."""
    td = u.td_post
    disB = [None] * u.gl.n
    for j, l in enumerate(u.b_local):
        disB[l] = u.D[j]
    for v in reversed(td.order):  # decreasing rank = parents first
        if v in u.b_set:
            continue
        row = np.full(len(u.b_local), math.inf)
        for k, x in enumerate(td.neigh[v]):
            np.minimum(row, td.sc[v][k] + disB[x], out=row)
        disB[v] = row
    b_hub = [idx.bhubs[u.vertices[l]] for l in u.b_local]
    lstar = {}
    for v in range(u.gl.n):
        if v in u.b_set:
            continue
        if not b_hub:
            lstar[v] = (np.empty(0, dtype=np.int64), np.empty(0))
            continue
        hubs = np.concatenate([h for h, _ in b_hub])
        dists = np.concatenate([d + disB[v][j] for j, (_, d) in enumerate(b_hub)])
        uh, inv = np.unique(hubs, return_inverse=True)
        best = np.full(len(uh), math.inf)
        np.minimum.at(best, inv, dists)
        lstar[v] = (uh, best)
    return disB, lstar


def _assert_cross_equals_reference(idx):
    entries = 0
    for u in idx.units:
        disB, lstar = _reference_cross(idx, u)
        assert len(u.disB) == len(disB)
        for v, row in enumerate(disB):
            assert np.array_equal(u.disB[v], row), (u.pid, v)
        assert u.lstar.keys() == lstar.keys()
        for v, (hubs, dists) in lstar.items():
            got_h, got_d = u.lstar[v]
            assert got_h.dtype == hubs.dtype and np.array_equal(got_h, hubs), (u.pid, v)
            assert np.array_equal(got_d, dists), (u.pid, v)
        entries += sum(len(r) for r in disB) + sum(len(h) for h, _ in lstar.values())
        entries += sum(len(nb) for nb in u.td.neigh) + sum(len(d) for d in u.dis)
        entries += sum(len(nb) for nb in u.td_post.neigh) + sum(len(d) for d in u.dis_post)
    entries += sum(len(nb) for nb in idx.td_o.neigh) + sum(len(d) for d in idx.dis_o)
    entries += sum(len(h) for h, _ in idx.bhubs.values())
    assert idx.index_size() == entries


@pytest.mark.parametrize("case", ["k3", "k4", "k1", "components"])
def test_cross_index_equals_reference(case):
    """disB and L* equal the per-vertex loops bit for bit, after the build
    and after every batch; ``index_size`` counts no pad entries."""
    if case == "components":
        g = _two_components()
        idx = PMHLIndex(g.copy(), 4)
        assert [] in idx.part.boundary
        batches = update_batches(g, batches=2, volume=15, seed=4)
    else:
        k = {"k3": 3, "k4": 4, "k1": 1}[case]
        g, coords, batches, _ = updated_case(k, 20, 5)
        idx = PMHLIndex(g.copy(), k, coords)
    _assert_cross_equals_reference(idx)
    rebuilt = 0
    for batch in batches:
        rebuilt += len(idx.apply_batch(batch)["u5"]["parts"])
        _assert_cross_equals_reference(idx)
    assert rebuilt
