"""The staged-index contract of the PSP indexes (PMHL, N-CH-P, P-TD-P, PostMHL).

- Fig. 7 / §V-D / §VI-C: query stage k is exact as soon as U-stage k has
  finished, while the later stages may still be stale. ``maintain`` yields
  after each U-stage, so every live stage is checked at that point.
- ``apply_batch``'s nested keys are what ``perfbench/serving.py`` and the
  stage-wall folds in ``repro.experiments.harness`` read.
"""
from functools import lru_cache, partial

import numpy as np
import pytest

from repro.core.dijkstra import bidijkstra, floyd_warshall
from repro.psp.pmhl import PMHLIndex
from repro.psp.postmhl import PostMHLIndex
from repro.psp.strategies import NCHPIndex, PTDPIndex
from tests.util import pairs_for, small_case

CASE = (3, 20, 6)  # small_case args: seed, width, height
KINDS = ["increase", "decrease", "mixed"]

BUILD = {
    "PMHL": lambda g, coords: PMHLIndex(g, 4, coords),
    "N-CH-P": lambda g, coords: NCHPIndex(g, 4, coords),
    "P-TD-P": lambda g, coords: PTDPIndex(g, 4, coords),
    "PostMHL": lambda g, coords: PostMHLIndex(g, tau=10, k_e=6),
}

# U-stage after which each query stage is exact; BiDijkstra after u1.
LIVE_AFTER = {
    "pch": "u2",
    "noboundary": "u3",
    "postboundary": "u4",
    "post": "u4",
    "cross": "u5",
    "h2h": "u5",
}


@lru_cache(maxsize=None)
def kind_batches(kind: str, n: int = 3, volume: int = 5):
    """``n`` batches that double ("increase"), halve ("decrease") or do
    either ("mixed") the weights of ``volume`` random edges, each with the
    all-pairs distances after it."""
    g, _, _ = small_case(*CASE)
    rng = np.random.default_rng(KINDS.index(kind))
    shadow = g.copy()
    out = []
    for _ in range(n):
        edges = list(shadow.edges())
        batch = []
        for i in rng.choice(len(edges), size=volume, replace=False):
            a, b, w = edges[i]
            up = kind == "increase" or (kind == "mixed" and rng.random() < 0.5)
            batch.append((a, b, w * 2.0 if up else w * 0.5))
        shadow.apply_updates(batch)
        out.append((batch, floyd_warshall(shadow)))
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", list(BUILD))
def test_stage_exact_when_its_u_stage_finishes(name, kind):
    g, coords, _ = small_case(*CASE)
    idx = BUILD[name](g.copy(), coords)
    pairs = pairs_for(g.n, 40, 5)
    for batch, fw in kind_batches(kind):
        live = []
        for key, _ in idx.maintain(batch):
            if key == "u1":
                live.append(("bidij", partial(bidijkstra, idx.graph)))
            live += [(n, partial(q, idx)) for n, q in idx.stages if LIVE_AFTER[n] == key]
            for n, q in live:
                for s, t in pairs:
                    assert q(s, t) == pytest.approx(fw[s][t]), (key, n, s, t)
        assert [n for n, _ in live] == ["bidij"] + [n for n, _ in idx.stages]


SHAPES = {
    "PMHL": {
        "u2": {"parts", "overlay"},
        "u3": {"parts", "overlay"},
        "u4": {"parts"},
        "u5": {"parts", "boundary_hubs"},
    },
    "N-CH-P": {"u2": {"parts", "overlay"}},
    "P-TD-P": {"u2": {"parts", "overlay"}, "u3": {"parts", "overlay"}, "u4": {"parts"}},
    "PostMHL": {"u2": {"parts", "overlay"}, "u3": {"overlay"}, "u4": {"parts"}, "u5": {"parts"}},
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_apply_batch_key_shape(name):
    """u1 is seconds; every later key maps fields to seconds, and
    ``parts`` maps partition ids to seconds."""
    g, coords, _ = small_case(*CASE)
    idx = BUILD[name](g.copy(), coords)
    for batch, _ in kind_batches("mixed"):
        out = idx.apply_batch(batch)
        assert list(out) == ["u1", *SHAPES[name]]
        assert type(out["u1"]) is float
        for key, fields in SHAPES[name].items():
            assert set(out[key]) == fields
            for field, v in out[key].items():
                if field == "parts":
                    assert all(type(i) is int and type(s) is float for i, s in v.items())
                else:
                    assert type(v) is float
