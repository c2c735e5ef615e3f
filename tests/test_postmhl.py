"""PostMHL (Algorithm 4): correctness, DH2H equivalence, maintenance."""
import numpy as np
import pytest

from repro.core.h2h import H2HIndex
from repro.psp.postmhl import PostMHLIndex
from tests.util import pairs_for, small_case, updated_case

PARAMS = [(0, 8, 4), (1, 8, 5), (2, 10, 4)]


@pytest.fixture(scope="module", params=PARAMS)
def built(request):
    seed, tau, ke = request.param
    g, _, fw = small_case(seed, 20, 5)
    return PostMHLIndex(g.copy(), tau=tau, k_e=ke), g, fw, seed


def test_partitions_exist(built):
    idx, g, _, _ = built
    assert idx.k >= 2
    assert 0 < idx.overlay_size() < g.n


def test_remark2_labels_equal_h2h(built):
    """PostMHL's full label rows are exactly the H2H/DH2H labels."""
    idx, g, _, _ = built
    ref = H2HIndex(g.copy())
    for v in range(g.n):
        assert np.array_equal(idx.dis[v], ref.dis[v]), v


@pytest.mark.parametrize("stage", ["query_pch", "query_postboundary", "query"])
def test_stage_queries_exact(built, stage):
    idx, g, fw, seed = built
    q = getattr(idx, stage)
    for s, t in pairs_for(g.n, 50, seed):
        assert q(s, t) == pytest.approx(fw[s][t]), (stage, s, t)


def test_disB_exact(built):
    """Boundary arrays hold exact global distances to X(root).N."""
    idx, g, fw, _ = built
    for i in range(idx.k):
        bs = idx.tdp.boundary[i]
        for v in idx.tdp.parts[i][::4]:
            for j, b in enumerate(bs):
                assert idx.disB[v][j] == pytest.approx(fw[v][b])


def test_overlay_neighbors_of_partition_in_root_bag(built):
    """Every overlay neighbor of an in-partition vertex ∈ X(root).N —
    the containment Algorithm 4 line 26 relies on."""
    idx, _, _, _ = built
    for i in range(idx.k):
        bag = set(idx.tdp.boundary[i])
        for v in idx.tdp.parts[i]:
            for x in idx.td.neigh[v]:
                if x in idx.tdp.overlay:
                    assert x in bag


@pytest.mark.parametrize("seed,tau,ke", PARAMS[:2])
def test_maintenance_all_stages(seed, tau, ke):
    g, _, ups, truths = updated_case(seed, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
    for batch, fw in zip(ups, truths):
        times = idx.apply_batch(batch)
        assert {"u1", "u2", "u3", "u4", "u5"} <= set(times)
        for s, t in pairs_for(g.n, 25, seed + 3):
            d = fw[s][t]
            assert idx.query_bidij(s, t) == pytest.approx(d)
            assert idx.query_pch(s, t) == pytest.approx(d)
            assert idx.query_postboundary(s, t) == pytest.approx(d)
            assert idx.query(s, t) == pytest.approx(d)


def test_maintenance_labels_equal_h2h_after_updates():
    """Theorem 4 consequence: staged updates land on the DH2H labels.

    The second case has batches that change an overlay ancestor's
    distance to a boundary vertex while no boundary label changes; the
    partitions below must still refresh their cross-boundary columns.
    """
    for case, tau, ke in [((3, 20, 5), 8, 4), ((3, 20, 6, 4, 3), 10, 6)]:
        g, _, ups, _ = updated_case(*case)
        idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
        ref = H2HIndex(g.copy())
        for batch in ups:
            idx.apply_batch(batch)
            ref.apply_batch(batch)
            for v in range(g.n):
                assert np.array_equal(idx.dis[v], ref.dis[v]), (case, v)
            for i, r in enumerate(idx.tdp.roots):
                for v in idx.tdp.parts[i]:
                    assert np.array_equal(idx.disB[v], ref.dis[v][idx.td.pos[r]]), (case, v)


def test_overlay_only_batch_refreshes_partitions():
    """A batch of overlay edges only: the partitions' label rows are
    rewritten in place, and the post-boundary and final stages must
    still see every changed overlay label."""
    from repro.core.dijkstra import floyd_warshall

    g, _, _ = small_case(6, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=8, k_e=4)
    ov = idx.tdp.overlay
    batch = [(u, v, w * 3) for u, v, w in g.edges() if u in ov and v in ov][::2]
    assert batch
    idx.apply_batch(batch)
    g2 = g.copy()
    g2.apply_updates(batch)
    fw = floyd_warshall(g2)
    for s, t in pairs_for(g.n, 60, 8):
        assert idx.query_postboundary(s, t) == pytest.approx(fw[s][t])
        assert idx.query(s, t) == pytest.approx(fw[s][t])


def test_rejected_batch_leaves_index_unchanged():
    """A batch with a missing edge raises before U1 writes anything."""
    g, _, fw = small_case(6, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=8, k_e=4)
    (u, v, w), missing = next(iter(g.edges())), (0, g.n - 1, 1.0)
    assert not g.has_edge(0, g.n - 1)
    for bad in ([(u, v, w * 2), missing], [(u, v, w * 2), (u, v, -5.0)]):
        with pytest.raises((KeyError, ValueError)):
            idx.apply_batch(bad)
        assert idx.graph.weight(u, v) == w
        for s, t in pairs_for(g.n, 40, 9):
            assert idx.query(s, t) == pytest.approx(fw[s][t])
            assert idx.query_postboundary(s, t) == pytest.approx(fw[s][t])


def test_maintenance_increase_only():
    from repro.core.dijkstra import floyd_warshall

    g, _, fw0 = small_case(6, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=8, k_e=4)
    batch = [(u, v, w * 3) for u, v, w in list(g.edges())[::4]]
    idx.apply_batch(batch)
    g2 = g.copy()
    g2.apply_updates(batch)
    fw = floyd_warshall(g2)
    for s, t in pairs_for(g.n, 40, 5):
        assert idx.query(s, t) == pytest.approx(fw[s][t])
        assert idx.query_postboundary(s, t) == pytest.approx(fw[s][t])


def test_index_size_includes_boundary_arrays(built):
    """Theorem 5 shape: |L| = H2H labels + shortcuts + n_p·|B| terms."""
    idx, g, _, _ = built
    h2h_part = sum(len(d) for d in idx.dis) + sum(len(nb) for nb in idx.td.neigh)
    extra = sum(len(b) for b in idx.disB if b is not None)
    assert idx.index_size() == h2h_part + extra
    assert extra > 0


def test_build_times_recorded(built):
    idx, _, _, _ = built
    assert set(idx.build_times) == {"tree", "partition", "overlay", "post", "cross"}
    assert len(idx.build_times["post"]) == idx.k
