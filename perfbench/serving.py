"""Serving workloads: build PostMHL/PMHL on FLA, replay queries and batches.

Set-up is timed as a user pays it: graph generation and index build
(partitioning included), repeated ``SETUP_REPS`` times with the median
taken, plus one warm-up of the last index built, the one served: an
untimed update batch and one query pass over every stage, which fill
the tree decomposition's lazy contributor cache.

Each interval applies one real ``apply_batch``, timed from outside. Its
returned U-stage seconds, folded in the order the code ran them, give
the offsets at which the query stages go live (p = 1: what ran on this
process, no LPT). The final stage goes live at the outside wall.

Every time the replay and the end-to-end metrics use is in reference
seconds (``refclock.py``): measured seconds scaled by the host speed
that probes taken around the step found.
"""
from __future__ import annotations

import math
import os
import time
import traceback
from contextlib import nullcontext

import numpy as np

from repro.core.dijkstra import dijkstra
from repro.experiments.harness import pmhl_stage_walls, postmhl_stage_walls
from repro.graphs.generator import DATASETS, update_batches
from repro.psp.pmhl import PMHLIndex
from repro.psp.postmhl import PostMHLIndex
from repro.throughput.queue_model import Stage, multistage_throughput

from refclock import RefClock
from replay import Replay, percentile
from workloads import BATCH_SEED, DATASET, Workload

SETUP_REPS = 3
MIN_INTERVALS = 3
MAX_INTERVALS = 60
PROBE_EVERY_S = 0.5      # wall seconds between reference-clock probes while serving
WARM_PAIRS = 32
CHECK_PER_STAGE = 2      # answers per stage checked against Dijkstra, per interval
CHECK_EXTRA = 6          # further answers per interval, any stage

STAGE_FNS = {
    "postmhl": {"bidij": "query_bidij", "pch": "query_pch",
                "postboundary": "query_postboundary", "final": "query"},
    "pmhl": {"bidij": "query_bidij", "pch": "query_pch", "noboundary": "query_noboundary",
             "postboundary": "query_postboundary", "final": "query_cross"},
}
ALL_STAGES = ("bidij", "pch", "noboundary", "postboundary", "final")


def reported_seconds(out) -> float:
    """Sum of every stage/task duration an ``apply_batch`` returned."""
    if isinstance(out, dict):
        return sum(reported_seconds(v) for v in out.values())
    return float(out)


def stage_offsets(algo: str, out: dict, wall: float, f: float) -> list[tuple[float, str]]:
    """Go-live offset of each query stage inside one interval (p = 1).

    ``out``'s measured seconds are scaled by ``f``; ``wall`` is already
    in reference seconds.
    """
    out = scale(out, f)
    u1 = out["u1"]
    u2 = u1 + sum(out["u2"]["parts"].values()) + out["u2"]["overlay"]
    if algo == "postmhl":
        u3 = u2 + out["u3"]["overlay"]
        u4, u5 = out["u4"]["parts"], out["u5"]["parts"]
        # post(i) and cross(i) run interleaved per partition, so the
        # post-boundary stage is live when the last post(i) has finished.
        post = u3 + sum(u4.values()) + sum(u5.values()) - (u5[max(u5)] if u5 else 0.0)
        pts = [(u1, "bidij"), (u2, "pch"), (post, "postboundary"), (wall, "final")]
    else:
        u3 = u2 + sum(out["u3"]["parts"].values()) + out["u3"]["overlay"]
        u4 = u3 + sum(out["u4"]["parts"].values())
        pts = [(u1, "bidij"), (u2, "pch"), (u3, "noboundary"), (u4, "postboundary"),
               (wall, "final")]
    clamped, prev = [], 0.0
    for off, name in pts:
        prev = min(max(prev, off), wall)
        clamped.append((prev, name))
    return clamped


def scale(out, f: float):
    """``apply_batch``'s returned seconds, each multiplied by ``f``."""
    if isinstance(out, dict):
        return {k: scale(v, f) for k, v in out.items()}
    return float(out) * f


def lpt_final_wall(algo: str, out: dict, p: int) -> float:
    walls = postmhl_stage_walls(out, p) if algo == "postmhl" else pmhl_stage_walls(out, p)
    return walls[-1]


def make_pairs(n: int, local_share: float, parts: list[list[int]] | None):
    """Pair generator: uniform s != t; ``local_share`` of them inside s's part."""
    pid = pos = None
    if parts is not None:
        pid = np.empty(n, dtype=np.int64)
        pos = np.empty(n, dtype=np.int64)
        for i, p in enumerate(parts):
            pid[p] = i
            pos[p] = np.arange(len(p))

    def pairs(rng: np.random.Generator, m: int) -> np.ndarray:
        s = rng.integers(0, n, m)
        t = rng.integers(0, n - 1, m)
        t = t + (t >= s)
        if local_share > 0:
            local = np.nonzero(rng.random(m) < local_share)[0]
            j = rng.random(len(local))
            for i, u in zip(local, j):
                part = parts[pid[s[i]]]
                x = int(u * (len(part) - 1))
                t[i] = part[x + (x >= pos[s[i]])]
        return np.stack([s, t], axis=1)

    return pairs


def _span(tracer, name: str, ctx: str | None = None):
    return tracer.span(name, ctx) if tracer is not None else nullcontext()


def build_index(w: Workload, tracer=None):
    spec = DATASETS[DATASET]
    with _span(tracer, "graphs.generate"):
        graph, coords = spec.build()
    with _span(tracer, "psp.build"):
        if w.algo == "postmhl":
            return PostMHLIndex(graph, tau=spec.tau, k_e=spec.k_e)
        return PMHLIndex(graph, spec.k, coords)


def warm_up(idx, w: Workload, batch, pairs) -> None:
    idx.apply_batch(batch)
    for name in STAGE_FNS[w.algo].values():
        fn = getattr(idx, name)
        for s, t in pairs:
            fn(int(s), int(t))


def same_answer(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class ServingRun:
    """One workload run: set-up, replay, correctness gate, metrics."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        spec = DATASETS[DATASET]
        g0, _ = spec.build()
        self.n, self.m = g0.n, g0.m
        self.batches = update_batches(g0, batches=1 + MAX_INTERVALS, volume=w.volume,
                                      seed=BATCH_SEED)
        self.warm_pairs = np.random.default_rng([seed, 1 << 20]).integers(
            0, self.n, size=(WARM_PAIRS, 2))
        self.clock = RefClock()
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.wrong = 0

    # ------------------------------------------------------------------
    def setup(self, reps: int = SETUP_REPS, tracer=None) -> float:
        """Median build seconds over ``reps`` plus the warm-up seconds, in
        reference seconds; ``setup_raw_s`` keeps the same sum as measured."""
        times, raw = [], []
        clock = self.clock
        before = clock.probe()
        for _ in range(reps):
            self.idx = None
            t0 = time.perf_counter()
            self.idx = build_index(self.w, tracer)
            raw.append(time.perf_counter() - t0)
            after = clock.probe()
            times.append(raw[-1] * clock.factor(before, after))
            before = after
        t0 = time.perf_counter()
        with _span(tracer, "psp.warm_up", ctx="warmup"):
            warm_up(self.idx, self.w, self.batches[0], self.warm_pairs)
        warm = time.perf_counter() - t0
        f = clock.factor(before, clock.probe())
        self.setup_raw_s = float(np.median(raw)) + warm
        self.index_entries = self.idx.index_size()
        parts = self.idx.part.parts if self.w.algo == "pmhl" else None
        self.pair_fn = make_pairs(self.n, self.w.local_share, parts)
        self.next_batch = 1
        return float(np.median(times)) + warm * f

    # ------------------------------------------------------------------
    def replay(self, seconds: float, tracer=None, min_intervals: int = MIN_INTERVALS) -> dict:
        """Serve ``seconds / interval_s`` intervals; returns a summary.

        The reference clock is probed before and after each batch: the
        batch wall and stage seconds are scaled by the factor both probes
        give. Query service times are scaled by the latest probe; while
        queries are served it is repeated every ``PROBE_EVERY_S`` seconds.
        ``walls_raw`` keeps the batch walls as measured.
        """
        w, idx = self.w, self.idx
        fns = {st: getattr(idx, name) for st, name in STAGE_FNS[w.algo].items()}
        apply = idx.apply_batch
        if tracer is not None:
            fns = {st: tracer.wrap(f"psp.query.{st}", f, hot=True, request=True)
                   for st, f in fns.items()}
            apply = tracer.wrap("psp.apply_batch", apply, maint=True, request=True)
        clock = self.clock
        f, next_probe = 1.0, 0.0

        def serve(stage: str, s: int, t: int) -> tuple[float, float]:
            nonlocal f, next_probe
            fn = fns[stage]
            t0 = time.perf_counter()
            ans = fn(s, t)
            t1 = time.perf_counter()
            sec = (t1 - t0) * f
            if t1 >= next_probe:
                f = clock.factor(clock.probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            return ans, sec

        rep = Replay(list(w.rates), w.dt, w.rq, seed=self.seed, pairs=self.pair_fn,
                     keep_samples=(w.fixed_rate,))
        rng = np.random.default_rng([self.seed, 1 << 21])
        walls, walls_raw, reported, lpt, outs = [], [], [], [], []
        final_same, final_inter = [], []
        pid = idx.part.pid if w.algo == "pmhl" else None
        nproc = len(os.sched_getaffinity(0))
        t_start = time.perf_counter()
        # Every run serves the same batches, whatever the host's speed.
        for _ in range(min(MAX_INTERVALS, max(min_intervals, round(seconds / w.interval_s)))):
            batch = self.batches[self.next_batch]
            self.next_batch += 1
            self.attempted += 1
            before = clock.probe()
            t0 = time.perf_counter()
            try:
                out = apply(batch)
            except Exception:  # a raising batch is a failed one; serving goes on
                traceback.print_exc()
                out = None
                self.failed += 1
            walls_raw.append(time.perf_counter() - t0)
            after = clock.probe()
            fb = clock.factor(before, after)
            f, next_probe = clock.factor(after), time.perf_counter() + PROBE_EVERY_S
            walls.append(walls_raw[-1] * fb)
            if out is None:
                reported.append(0.0)
                lpt.append(0.0)
                live = [(walls[-1], "final")]
            else:
                reported.append(reported_seconds(out))
                lpt.append(lpt_final_wall(w.algo, out, nproc))
                outs.append(out)
                live = stage_offsets(w.algo, out, walls[-1], fb)
            rep.interval(live, serve)
            self.attempted += len(rep.executed)
            if pid is not None:
                for stage, s, t, _, sec in rep.executed:
                    if stage == "final":
                        (final_same if pid[s] == pid[t] else final_inter).append(sec)
            self._check(rep, rng)
        self.failed += rep.failed
        return dict(replay=rep, walls=walls, walls_raw=walls_raw, reported=reported, lpt=lpt,
                    outs=outs, final_same=final_same, final_inter=final_inter,
                    wall_s=time.perf_counter() - t_start)

    def _check(self, rep: Replay, rng: np.random.Generator) -> None:
        """Untimed: a fixed-seed sample of this interval's answers vs Dijkstra."""
        # A query that raised (NaN answer) is already counted as failed.
        ok = [i for i, e in enumerate(rep.executed) if not math.isnan(e[3])]
        by_stage: dict[str, list[int]] = {}
        for i in ok:
            by_stage.setdefault(rep.executed[i][0], []).append(i)
        pick: set[int] = set()
        for ids in by_stage.values():
            pick.update(rng.choice(ids, size=min(CHECK_PER_STAGE, len(ids)), replace=False).tolist())
        if ok:
            pick.update(rng.choice(ok, size=min(CHECK_EXTRA, len(ok)), replace=False).tolist())
        g = self.idx.graph
        for i in sorted(pick):
            _, s, t, answer, _ = rep.executed[i]
            ref = dijkstra(g, s, {t}).get(t, math.inf)
            self.checked += 1
            if not same_answer(answer, ref):
                self.wrong += 1
                self.failed += 1

    # ------------------------------------------------------------------
    def end_to_end(self, res: dict) -> dict:
        rep: Replay = res["replay"]
        lam, censored = rep.lambda_star()
        fixed = next(r for r in rep.rungs if r.rate == self.w.fixed_rate)
        resp_ms = np.asarray(fixed.resp) * 1e3
        return {
            "lambda_star_qps": (lam, "q/s"),
            "resp_ms_p50": (percentile(resp_ms, 50), "ms"),
            "resp_ms_p99": (percentile(resp_ms, 99), "ms"),
            "update_s_p50": (float(np.median(res["walls"])), "s"),
            "_censored": censored,
            "_resp_samples": len(resp_ms),
        }

    def model_lambda(self, res: dict) -> float:
        """Lemma-1 multi-stage model fed this run's own windows and moments."""
        rep: Replay = res["replay"]
        names = [n for n in ALL_STAGES if n in STAGE_FNS[self.w.algo]]
        mean_win = {n: float(np.mean([wnd.get(n, 0.0) for wnd in rep.windows])) for n in names}
        # U1 (before the first stage is live) is folded into the first stage.
        mean_win[names[0]] += self.w.dt - sum(mean_win.values())
        stages, carry = [], 0.0
        for n in reversed(names):
            xs = rep.service.get(n)
            if not xs:  # never served: its window goes to the stage after it
                carry += mean_win[n]
                continue
            stages.append(Stage(mean_win[n] + carry, float(np.mean(xs)), float(np.var(xs))))
            carry = 0.0
        stages.reverse()
        if carry and stages:
            stages[0].duration += carry
        return multistage_throughput(stages, self.w.dt, self.w.rq)

    def layer_metrics(self, res: dict) -> dict:
        """Per-layer numbers the replay itself measures (no tracing needed)."""
        rep: Replay = res["replay"]
        m: dict = {}
        for st in ALL_STAGES:
            xs = np.asarray(rep.service.get(st, []), dtype=np.float64) * 1e6
            m[f"query.{st}_us_p50"] = (percentile(xs, 50) if len(xs) else 0.0, "us")
            m[f"query.{st}_us_p99"] = (percentile(xs, 99) if len(xs) else 0.0, "us")
            m[f"query.{st}_calls"] = (len(xs) / rep.intervals, "count/interval")
        for key in ("final_same", "final_inter"):
            xs = np.asarray(res[key]) * 1e6
            m[f"query.{key}_us_p50"] = (percentile(xs, 50) if len(xs) else 0.0, "us")
        fixed = next(r for r in rep.rungs if r.rate == self.w.fixed_rate)
        waits = np.asarray(fixed.wait) * 1e3
        served = sum(fixed.stage_served.values())
        m["queue.resp_ms_mean"] = (float(np.mean(fixed.resp)) * 1e3, "ms")
        m["queue.wait_ms_p50"] = (percentile(waits, 50), "ms")
        m["queue.wait_ms_p99"] = (percentile(waits, 99), "ms")
        m["queue.backlog_max"] = (float(max(fixed.backlog_end)), "count")
        m["queue.busy_frac"] = (fixed.busy / (rep.intervals * self.w.dt), "ratio")
        m["queue.nonfinal_share"] = (1.0 - fixed.stage_served.get("final", 0) / served, "ratio")
        m["queue.resp_samples"] = (float(served), "count")
        for st in ALL_STAGES:
            m[f"stage.window_s.{st}"] = (
                float(np.mean([wnd.get(st, 0.0) for wnd in rep.windows])), "s")
        # Measured seconds, like the U-stage seconds apply_batch returns.
        walls, reported = np.asarray(res["walls_raw"]), np.asarray(res["reported"])
        m["maint.wall_s"] = (float(walls.mean()), "s")
        m["maint.reported_s"] = (float(reported.mean()), "s")
        m["maint.unaccounted_s"] = (float((walls - reported).mean()), "s")
        m["maint.lpt_nproc_s"] = (float(np.mean(res["lpt"])), "s")
        m["replay.intervals"] = (float(rep.intervals), "count")
        return m
