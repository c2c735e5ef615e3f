"""Virtual-clock replay of a multi-stage index under batch updates.

This is the paper's system model (§II, Lemma 1): update batches arrive
every ``dt`` seconds, queries arrive as a Poisson stream and wait in one
FIFO queue in front of a single query server (M/G/1).

- Batch ``k`` is installed at virtual time ``k * dt``. The caller applies
  it for real and passes ``live``: the offsets inside the interval at
  which each query stage goes live, in Fig-7 order.
- A query is served by the latest stage live at its service start. The
  caller executes it for real; its measured wall time advances the
  server clock. Before the first stage is live, queries wait.
- Response is completion minus *scheduled* arrival, so a stall counts
  against every query queued behind it. The arrival generator is virtual
  and never runs late.

One replay serves a fixed ladder of offered rates, each with its own
queue carried across intervals. The rates share one arrival stream: the
rung with rate ``r`` keeps each arrival of the top rung with probability
``r / top`` (Poisson thinning), and the j-th arrival of every rung in an
interval asks for the same pair, the j-th of one iid pair sequence. A
query that several rungs serve at the same stage in the same interval is
executed once and every such rung uses its measured time (common random
numbers), so the real cost of a ladder is close to that of its busiest
rung: rungs saturated in a slow-stage window serve the same queries.

Nothing here imports the index code: ``serve(stage, s, t)`` returns
``(answer, seconds)``, which lets the self-tests drive the replay with a
fake constant-service index.
"""
from __future__ import annotations

import bisect
from array import array
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

VECTOR_CHUNK = 1024
STOP_FACTOR = 2.0  # a rung this far past R*_q (mean or backlog) is stopped
EMPTY_BLOCK = (np.empty(0), 0, np.empty((0, 2), dtype=np.int64))

Serve = Callable[[str, int, int], tuple[float, float]]
PairFn = Callable[[np.random.Generator, int], np.ndarray]


@dataclass
class Rung:
    """One offered rate with its own FIFO queue and server clock."""

    rate: float
    keep_samples: bool = False  # keep every response/wait (for percentiles)
    free_at: float = 0.0
    pending: list = field(default_factory=list)  # (arrival, id, s, t), not started
    # Not-started arrivals of the last interval, kept as arrays (times,
    # first id, pairs) until the rung serves again: an overloaded rung's
    # queue would otherwise hold a tuple per query until it is stopped.
    block: tuple = EMPTY_BLOCK
    resp_sum: float = 0.0
    served: int = 0
    resp: list[float] = field(default_factory=list)
    wait: list[float] = field(default_factory=list)
    stage_served: dict[str, int] = field(default_factory=dict)
    busy: float = 0.0
    backlog_end: list[int] = field(default_factory=list)
    stopped: bool = False
    stop_mean: float = math.nan

    def mean_response(self, now: float) -> float:
        """Mean response; queries still queued count as waiting until ``now``.

        For an overloaded rung this is a lower bound; a stable rung ends an
        interval with an empty or short queue, so the censoring barely moves it.
        """
        a_blk = self.block[0]
        total = (self.resp_sum + sum(now - a for a, _, _, _ in self.pending)
                 + now * len(a_blk) - float(a_blk.sum()))
        n = self.served + self.backlog()
        return total / n if n else 0.0

    def backlog(self) -> int:
        return len(self.pending) + len(self.block[0])

    def queue(self) -> list:
        """The not-started queries as (arrival, id, s, t), oldest first."""
        a_blk, first, st = self.block
        return self.pending + list(zip(a_blk.tolist(), range(first, first + len(a_blk)),
                                       st[:, 0].tolist(), st[:, 1].tolist()))

    def backlog_growth(self, rq: float) -> float:
        """Rise of the backlog at interval ends between the run's two halves,
        over the queue a mean response of ``rq`` implies (Little); the
        backlog grows when this exceeds 1."""
        b = self.backlog_end
        if len(b) < 2:
            return 0.0
        h = len(b) // 2
        return (float(np.mean(b[h:])) - float(np.mean(b[:h]))) / (self.rate * rq)


class Replay:
    """Serve a rate ladder through a sequence of update intervals."""

    def __init__(
        self,
        rates: list[float],
        dt: float,
        rq: float,
        *,
        seed: int,
        pairs: PairFn,
        keep_samples: tuple = (),
    ):
        if sorted(rates) != list(rates) or rates[0] <= 0:
            raise ValueError("rates must be positive and ascending")
        self.rungs = [Rung(r, keep_samples=r in keep_samples) for r in rates]
        self.dt = dt
        self.rq = rq
        self.seed = seed
        self.pairs = pairs
        self.intervals = 0
        self.windows: list[dict[str, float]] = []  # per interval: stage -> live seconds
        self.executed: list[tuple] = []  # this interval: (stage, s, t, answer, seconds)
        self.service: dict[str, array] = {}         # stage -> executed seconds, all intervals
        self.failed = 0
        self._next_id = 0

    # ------------------------------------------------------------------
    def _arrivals(self, k: int, t0: float):
        rng = np.random.default_rng([self.seed, k])
        top = self.rungs[-1].rate
        n = int(rng.poisson(top * self.dt))
        times = t0 + np.sort(rng.random(n)) * self.dt
        marks = rng.random(n) * top
        st = self.pairs(rng, n)
        return times, marks, st

    def interval(self, live: list[tuple[float, str]], serve: Serve) -> None:
        """Replay one interval; ``live`` = [(offset_s, stage)] ascending."""
        k = self.intervals
        dt = self.dt
        t0, t1 = k * dt, (k + 1) * dt
        offs = [t0 + min(o, dt) for o, _ in live]
        names = [n for _, n in live]
        nst = len(names)
        self.windows.append({n: max(0.0, (offs[j + 1] if j + 1 < nst else t1) - offs[j])
                             for j, n in enumerate(names)})
        times, marks, st = self._arrivals(k, t0)
        base = self._next_id
        self._next_id += len(times)
        self.executed = []
        # Executions of this interval, shared by the rungs: a dict keyed by
        # arrival id * nst + stage index, and for the final stage, which
        # serves most queries, arrays indexed by rank.
        cache: dict[int, tuple[float, float]] = {}
        fin_sec = np.full(len(times), np.nan)
        first_live, final_live = offs[0], offs[-1]

        def execute(stage: str, s: int, t: int) -> tuple[float, float]:
            try:
                hit = serve(stage, s, t)
            except Exception:  # a raising query is a failed one
                hit = (math.nan, 0.0)
                self.failed += 1
            self.executed.append((stage, s, t, hit[0], hit[1]))
            self.service.setdefault(stage, array("d")).append(hit[1])
            return hit

        s_all, t_all = st[:, 0].tolist(), st[:, 1].tolist()
        for rung in self.rungs:
            if rung.stopped:
                continue
            a_new = times[marks < rung.rate]
            a_list = a_new.tolist()
            m = len(a_list)
            served = [0] * nst
            keep = rung.keep_samples
            free = rung.free_at
            busy = resp_sum = 0.0
            # Scalar path: queries carried from earlier intervals, then new
            # ones until the first whose service starts in the final stage.
            carried = rung.queue()
            i = p = 0
            while True:
                if i < len(carried):
                    a, aid, s, t = carried[i]
                elif p < m:
                    a, aid, s, t = a_list[p], base + p, s_all[p], t_all[p]
                else:
                    break
                start = max(a, free, first_live)
                if start >= t1 or (start >= final_live and i == len(carried)):
                    break
                si = nst - 1 if start >= final_live else bisect.bisect_right(offs, start) - 1
                key = aid * nst + si
                hit = cache.get(key)
                if hit is None:
                    hit = cache[key] = execute(names[si], s, t)
                free = start + hit[1]
                resp_sum += free - a
                if keep:
                    rung.resp.append(free - a)
                    rung.wait.append(start - a)
                busy += hit[1]
                served[si] += 1
                if i < len(carried):
                    i += 1
                else:
                    p += 1
            # Vector path: the rest of the new queries all start in the
            # final stage; the FIFO recursion start_i = max(a_i, finish_{i-1})
            # is solved per chunk with a running maximum.
            if i == len(carried):
                free = max(free, final_live)
            while i == len(carried) and p < m and max(free, a_list[p]) < t1:
                q = min(m, p + VECTOR_CHUNK)
                for r in (np.nonzero(np.isnan(fin_sec[p:q]))[0] + p).tolist():
                    fin_sec[r] = execute(names[-1], s_all[r], t_all[r])[1]
                a, x = a_new[p:q], fin_sec[p:q]
                before = np.cumsum(x) - x
                starts = before + np.maximum(free, np.maximum.accumulate(a - before))
                c = int(np.searchsorted(starts, t1))  # first start past the interval
                fin = starts[:c] + x[:c]
                resp_sum += float((fin - a[:c]).sum())
                if keep:
                    rung.resp.extend((fin - a[:c]).tolist())
                    rung.wait.extend((starts[:c] - a[:c]).tolist())
                busy += float(x[:c].sum())
                served[-1] += c
                if c:
                    free = float(fin[-1])
                p += c
                if p < q:
                    break
            rung.pending = carried[i:]
            rung.block = (a_new[p:], base + p, st[p:m])
            rung.free_at = free
            rung.busy += busy
            rung.resp_sum += resp_sum
            rung.served += i + p
            for si, c in enumerate(served):
                rung.stage_served[names[si]] = rung.stage_served.get(names[si], 0) + c
            rung.backlog_end.append(rung.backlog())
        self.intervals += 1
        self._stop_failed(t1)

    def _stop_failed(self, now: float) -> None:
        """Stop a rung, and every higher one, once it fails decisively: its
        mean response is past ``STOP_FACTOR * rq`` or its backlog holds more
        than ``STOP_FACTOR`` times the queue that meeting ``rq`` implies."""
        for j, rung in enumerate(self.rungs):
            if rung.stopped:
                continue
            if (rung.mean_response(now) > STOP_FACTOR * self.rq
                    or rung.backlog_end[-1] > STOP_FACTOR * rung.rate * self.rq):
                for r in self.rungs[j:]:
                    if not r.stopped:
                        r.stopped = True
                        r.stop_mean = r.mean_response(now)
                        r.pending, r.block = [], EMPTY_BLOCK
                return

    # ------------------------------------------------------------------
    def rung_summary(self) -> list[dict]:
        now = self.intervals * self.dt
        out = []
        for r in self.rungs:
            mean = r.stop_mean if r.stopped else r.mean_response(now)
            growth = r.backlog_growth(self.rq)
            # One load index per rung: the rung passes when it is at most 1.
            load = max(mean / self.rq, growth, STOP_FACTOR if r.stopped else 0.0)
            out.append(dict(
                rate=r.rate, mean_s=mean, stopped=r.stopped, backlog_growth=growth,
                load=load, passed=load <= 1.0, served=r.served,
                backlog_end=list(r.backlog_end),
            ))
        return out

    def lambda_star(self) -> tuple[float, bool]:
        """(λ*, censored): see :func:`interpolate_lambda_star`."""
        s = self.rung_summary()
        return interpolate_lambda_star([r["rate"] for r in s], [r["load"] for r in s])


def interpolate_lambda_star(rates: list[float], loads: list[float]) -> tuple[float, bool]:
    """Rate at which a rung's load index crosses 1, from a fixed ladder.

    A rung's load is the larger of its mean response over R*_q and its
    backlog growth over the queue R*_q implies, so a rung passes (mean
    response within R*_q, no growing backlog) when its load is at most 1.
    The crossing lies between the first failing rung and the rung below
    it; it is interpolated linearly in log(load). When the lowest rung
    already fails, λ* is scaled down from it by ``1 / load``; when no
    rung fails, λ* is the top rate and ``censored`` is True. Lower loads
    never give a lower λ*.
    """
    f = next((i for i, x in enumerate(loads) if x > 1.0), None)
    if f is None:
        return rates[-1], True
    if f == 0:
        return rates[0] / loads[0], False
    lo, hi = rates[f - 1], rates[f]
    x_lo, x_hi = max(loads[f - 1], 1e-12), loads[f]
    frac = -math.log(x_lo) / (math.log(x_hi) - math.log(x_lo))
    return lo + (hi - lo) * min(1.0, max(0.0, frac)), False


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q)) if len(xs) else math.nan
