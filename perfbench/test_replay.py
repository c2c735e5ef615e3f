"""Self-tests of the replay engine, with fake indexes (no repro import).

Run with ``python3 -m pytest perfbench/test_replay.py`` or
``python3 perfbench/test_replay.py``. A bare ``pytest`` does not collect
them: the repository's ``testpaths`` are ``tests`` and ``benchmarks``.
"""
from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from replay import Replay, interpolate_lambda_star  # noqa: E402


def uniform_pairs(rng, m):
    return rng.integers(0, 1000, size=(m, 2))


def test_constant_service_matches_md1():
    """Constant service S at Poisson rate λ: mean response = S + ρS / (2(1-ρ))."""
    S = 1e-3
    rates = [300.0, 500.0, 700.0]
    rep = Replay(rates, 1.0, 10.0, seed=3, pairs=uniform_pairs)
    for _ in range(300):
        rep.interval([(0.0, "final")], lambda stage, s, t: (0.0, S))
    for r in rep.rung_summary():
        rho = r["rate"] * S
        want = S + rho * S / (2 * (1 - rho))
        assert math.isclose(r["mean_s"], want, rel_tol=0.04), (r["rate"], r["mean_s"], want)


def _reference(arrivals, live, dt, service):
    """Plain single-queue recursion over all intervals, for one rung."""
    free, resp, stages = 0.0, [], []
    pending = []
    for k, (times, pairs) in enumerate(arrivals):
        t0, t1 = k * dt, (k + 1) * dt
        offs = [t0 + o for o, _ in live[k]]
        pending += list(zip(times, pairs))
        while pending:
            a, (s, t) = pending[0]
            start = max(a, free, offs[0])
            if start >= t1:
                break
            pending.pop(0)
            j = max(i for i, o in enumerate(offs) if o <= start)
            stage = live[k][j][1]
            free = start + service(stage, s, t)
            resp.append(free - a)
            stages.append(stage)
    return resp, stages


def test_vector_path_matches_reference():
    """The chunked final-stage recursion equals the plain FIFO recursion."""
    dt = 0.5

    def service(stage, s, t):
        base = {"slow": 4e-3, "mid": 1e-3, "final": 2e-4}[stage]
        return base * (1 + ((s * 31 + t) % 7) / 7)

    rng = np.random.default_rng(5)
    live = [[(0.0, "slow"), (float(w), "mid"), (float(w) * 1.5, "final")]
            for w in rng.uniform(0.02, 0.2, size=12)]
    rep = Replay([2500.0], dt, 1.0, seed=9, pairs=uniform_pairs, keep_samples=(2500.0,))
    arrivals = []
    for k in range(len(live)):
        times, marks, st = rep._arrivals(k, k * dt)
        arrivals.append((times.tolist(), [tuple(p) for p in st.tolist()]))
        rep.interval(live[k], lambda stage, s, t: (0.0, service(stage, s, t)))
    resp, stages = _reference(arrivals, live, dt, service)
    rung = rep.rungs[0]
    assert len(rung.resp) == len(resp) > 1000
    assert np.allclose(rung.resp, resp, rtol=0, atol=1e-9)
    assert rung.stage_served == {s: stages.count(s) for s in set(stages)}


def test_rungs_share_one_execution_per_query_and_stage():
    calls = []

    def serve(stage, s, t):
        calls.append((stage, s, t))
        return 0.0, 1e-4

    rep = Replay([100.0, 200.0, 400.0], 1.0, 1.0, seed=1, pairs=uniform_pairs)
    rep.interval([(0.0, "final")], serve)
    served = sum(r.served for r in rep.rungs)
    assert len(calls) == rep.rungs[-1].served < served


def test_lambda_star_is_monotone_in_load():
    rng = np.random.default_rng(0)
    rates = [100.0, 200.0, 300.0, 400.0, 500.0, 700.0]
    for _ in range(500):
        loads = np.sort(rng.uniform(0.1, 3.0, size=len(rates)))
        lam, _ = interpolate_lambda_star(rates, list(loads))
        lighter = loads * rng.uniform(0.5, 1.0)
        lam2, _ = interpolate_lambda_star(rates, list(lighter))
        assert lam2 >= lam - 1e-9
        assert min(1.0, 1.0 / loads[0]) * rates[0] - 1e-9 <= lam <= rates[-1]


def test_lambda_star_interpolates_and_censors():
    rates = [100.0, 200.0]
    lam, censored = interpolate_lambda_star(rates, [0.5, 2.0])
    assert 100.0 < lam < 200.0 and not censored
    assert math.isclose(lam, 150.0)  # log-midpoint of 0.5 and 2 is 1
    assert interpolate_lambda_star(rates, [0.5, 0.8]) == (200.0, True)
    assert interpolate_lambda_star(rates, [2.0, 4.0]) == (50.0, False)


def test_growing_backlog_fails_a_rung_within_rq():
    """Mean response within R*_q but a queue that grows: the rung fails."""
    rep = Replay([100.0], 1.0, 1.0, seed=1, pairs=uniform_pairs)
    rung = rep.rungs[0]
    rung.backlog_end = [0, 0, 300, 400]
    rung.resp_sum, rung.served = 10.0, 100
    (r,) = rep.rung_summary()
    assert r["mean_s"] <= 1.0 and r["backlog_growth"] > 1.0 and not r["passed"]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
