"""Traced run: per-layer spans and counters, recorded from benchmark code.

Nothing under ``src/`` is edited. The core entry points are wrapped where
``repro.psp.*`` and ``repro.core.h2h`` import them (``build_treedec``,
``update_shortcuts``, ``build_labels``, ``h2h_query``, ``ch_query_rows``,
``bidijkstra``, ``td_partition``, ``partition_graph``, ``hub_query``),
and the index constructor, ``apply_batch`` and each ``query_*`` call are
wrapped by the serving code.

- A span is (id, name, start, end, parent id, request id, context). A
  request is one query, one batch or one set-up step: every span inside
  it shares its id. The context is ``setup``, ``warmup``, ``maint``
  (inside ``apply_batch``) or ``serve``.
- Hot calls (the query kernels) are aggregated as count, total and self
  time per (name, context); only the first ``SPAN_CAP`` made while
  serving also keep a span.
- Self time of a call is its duration minus the time its traced children
  covered. Counter bookkeeping done after a call is charged to no layer
  and reported as ``trace.post_s``.

Spans stay in memory and are written to ``.bench_run/`` at the end.
The end-to-end metrics of ``--trace 0`` runs never load this module; the
traced run replays a quarter of its time untraced, then a quarter
traced, and reports the difference as the tracing overhead; the other
half of its time goes to the traced set-up and, in ``read``, to Spark.
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

from serving import reported_seconds

SPAN_CAP = 20000

# (module, attribute, hot): the import sites wrapped in a traced run.
TARGETS = [
    ("repro.core.h2h", "build_treedec", False),
    ("repro.core.h2h", "build_labels", False),
    ("repro.core.h2h", "update_shortcuts", False),
    ("repro.core.h2h", "h2h_query", True),
    ("repro.core.h2h", "ch_query_rows", True),
    ("repro.core.h2h", "bidijkstra", True),
    ("repro.psp.postmhl", "build_treedec", False),
    ("repro.psp.postmhl", "td_partition", False),
    ("repro.psp.postmhl", "build_labels", False),
    ("repro.psp.postmhl", "update_shortcuts", False),
    ("repro.psp.postmhl", "h2h_query", True),
    ("repro.psp.postmhl", "ch_query_rows", True),
    ("repro.psp.postmhl", "bidijkstra", True),
    ("repro.psp.pmhl", "build_treedec", False),
    ("repro.psp.pmhl", "partition_graph", False),
    ("repro.psp.pmhl", "build_labels", False),
    ("repro.psp.pmhl", "update_shortcuts", False),
    ("repro.psp.pmhl", "h2h_query", True),
    ("repro.psp.pmhl", "ch_query_rows", True),
    ("repro.psp.pmhl", "bidijkstra", True),
    ("repro.psp.pmhl", "hub_query", True),
]
LAYER = {
    "build_treedec": "core", "build_labels": "core", "update_shortcuts": "core",
    "h2h_query": "core", "ch_query_rows": "core", "bidijkstra": "core",
    "td_partition": "partition", "partition_graph": "partition", "hub_query": "pmhl",
}


class Tracer:
    """In-memory spans plus aggregated hot calls and work counters."""

    def __init__(self):
        self.enabled = True
        self.ctx = "setup"
        self.rid = None
        self.spans: list[tuple] = []
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # open frames: [child seconds, span id]
        self._next = 0
        self._next_rid = 0
        self._hot_spans = 0
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    def _enter(self) -> list:
        frame = [0.0, self._next]
        self._next += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float, hot: bool, ctx: str) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += dur
        a = self.agg[(name, ctx)]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[0]
        if not hot or (ctx == "serve" and self._hot_spans < SPAN_CAP):
            self._hot_spans += hot
            self.spans.append((frame[1], name, t0, t1, parent[1] if parent else None,
                               self.rid, ctx))

    def span(self, name: str, ctx: str | None = None):
        return _Span(self, name, ctx)

    def _new_request(self) -> bool:
        """Open a request id unless one is open; True if this call opened it."""
        if self.rid is not None:
            return False
        self.rid = self._next_rid
        self._next_rid += 1
        return True

    def wrap(self, name: str, fn, *, hot: bool = False, maint: bool = False,
             request: bool = False, post=None):
        """``fn`` with a span (or an aggregate, if ``hot``) around each call."""
        tr = self

        def traced(*a, **kw):
            if not tr.enabled:
                return fn(*a, **kw)
            opened = request and tr._new_request()
            frame = tr._enter()
            prev = tr.ctx
            if maint:
                tr.ctx = "maint"
            t0 = time.perf_counter()
            try:
                res = fn(*a, **kw)
            finally:
                t1 = time.perf_counter()
                tr.ctx = prev
                tr._exit(name, frame, t0, t1, hot, "maint" if maint else prev)
                if opened:
                    tr.rid = None
            if post is not None:
                tp = time.perf_counter()
                post(tr, res, a, kw)
                extra = time.perf_counter() - tp
                tr.counts["trace.post_s"] += extra
                if tr._stack:
                    tr._stack[-1][0] += extra
            return res

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the core entry points at their import sites."""
        import importlib

        for mod_name, attr, hot in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            post = POST.get(attr)
            setattr(mod, attr, self.wrap(f"{LAYER[attr]}.{attr}", orig, hot=hot, post=post))
            self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def reset_aggregates(self) -> None:
        self.agg.clear()
        self.counts.clear()

    # ------------------------------------------------------------------
    def total(self, name: str, ctx: str) -> tuple[int, float]:
        a = self.agg.get((name, ctx), [0, 0.0, 0.0])
        return a[0], a[1]

    def dump(self, path: str, manifest: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({
                "manifest": manifest,
                "fields": ["id", "name", "start", "end", "parent", "rid", "ctx"],
                "spans": self.spans,
                "aggregates": [dict(name=n, ctx=c, calls=a[0], total_s=a[1], self_s=a[2])
                               for (n, c), a in sorted(self.agg.items())],
                "counts": dict(self.counts),
            }, f, default=float)


def layer_self(agg: dict, ctx: str) -> dict[str, float]:
    """Self seconds per layer (the name's first component) in ``ctx``."""
    out: dict[str, float] = defaultdict(float)
    for (name, c), (_, _, self_s) in agg.items():
        if c == ctx:
            out[name.split(".")[0]] += self_s
    return out


class _Span:
    def __init__(self, tr: Tracer, name: str, ctx: str | None):
        self.tr, self.name, self.ctx = tr, name, ctx

    def __enter__(self):
        tr = self.tr
        self.opened = tr._new_request()
        self.frame = tr._enter()
        self.prev = tr.ctx
        if self.ctx:
            tr.ctx = self.ctx
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tr
        tr.ctx = self.prev
        tr._exit(self.name, self.frame, self.t0, t1, False, self.ctx or self.prev)
        if self.opened:
            tr.rid = None
        return False


# ----------------------------------------------------------------------
# counters read off call results, outside the timed region
# ----------------------------------------------------------------------
def _post_update_shortcuts(tr: Tracer, res, a, kw) -> None:
    tr.counts[f"core.sc_pairs_recomputed@{tr.ctx}"] += len(res.recomputed_pairs)
    tr.counts[f"core.sc_pairs_changed@{tr.ctx}"] += len(res.changed_pairs)


def _post_build_labels(tr: Tracer, res, a, kw) -> None:
    """Rows the call (re)computed: the same walk ``build_labels`` makes."""
    td = a[0]
    active = kw.get("active")
    stack = list(kw.get("roots") if kw.get("roots") is not None else td.roots)
    rows = 0
    while stack:
        v = stack.pop()
        if active is not None and v not in active:
            continue
        rows += 1
        stack.extend(td.children[v])
    tr.counts[f"core.label_rows_recomputed@{tr.ctx}"] += rows


POST = {"update_shortcuts": _post_update_shortcuts, "build_labels": _post_build_labels}


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
# Per-interval figures read off what ``apply_batch`` returned, per index.
U_STAGES = {
    "postmhl": {
        "u2_parts_s": lambda o: reported_seconds(o["u2"]["parts"]),
        "u2_overlay_s": lambda o: o["u2"]["overlay"],
        "u3_s": lambda o: reported_seconds(o["u3"]),
        "u4_s": lambda o: reported_seconds(o["u4"]["parts"]),
        "u5_s": lambda o: reported_seconds(o["u5"]["parts"]),
        "partitions_rebuilt": lambda o: len(o["u4"]["parts"]),
    },
    "pmhl": {
        "u2_parts_s": lambda o: reported_seconds(o["u2"]["parts"]),
        "u2_overlay_s": lambda o: o["u2"]["overlay"],
        "u3_s": lambda o: reported_seconds(o["u3"]),
        "u4_s": lambda o: reported_seconds(o["u4"]["parts"]),
        "u4_partitions": lambda o: len(o["u4"]["parts"]),
        "u5_hubs_s": lambda o: o["u5"]["boundary_hubs"],
        "u5_parts_s": lambda o: reported_seconds(o["u5"]["parts"]),
        "u5_partitions": lambda o: len(o["u5"]["parts"]),
    },
}


def _stage_metrics(algo: str, outs: list[dict]) -> dict:
    """Per-interval means of the U-stage figures; zero for the other index."""
    m = {"graphs.u1_s": (float(np.mean([o["u1"] for o in outs])), "s/interval")}
    for p, figures in U_STAGES.items():
        for k, f in figures.items():
            v = float(np.mean([f(o) for o in outs])) if p == algo else 0.0
            m[f"{p}.{k}"] = (v, "s/interval" if k.endswith("_s") else "count/interval")
    return m


BUILD_KEYS = {
    "postmhl": ("tree", "partition", "overlay", "post", "cross"),
    "pmhl": ("parts_phase_a", "overlay", "parts_phase_b", "post", "boundary_hubs", "cross"),
}


def traced_run(run, seconds: float, run_dir: str) -> tuple[dict, dict]:
    """Set up traced, replay a quarter of ``seconds`` untraced and a quarter
    traced; per-layer metrics.

    ``run`` is a ``serving.ServingRun``.
    """
    w = run.w
    tr = Tracer()
    tr.install()
    try:
        tr.ctx = "setup"
        run.setup(reps=1, tracer=tr)
        setup_agg = dict(tr.agg)
        setup_counts = dict(tr.counts)
        tr.enabled = False
        tr.ctx = "serve"
        base = run.replay(seconds / 4, tracer=tr, min_intervals=2)
        tr.enabled = True
        tr.reset_aggregates()
        res = run.replay(seconds / 4, tracer=tr, min_intervals=2)
    finally:
        tr.uninstall()
    rep = res["replay"]
    n_int = rep.intervals
    m: dict = {}

    def setup_s(name: str) -> float:
        return sum(a[1] for (n, c), a in setup_agg.items() if n == name)

    m["graphs.generate_s"] = (setup_s("graphs.generate"), "s")
    m["partition.partition_s"] = (
        setup_s("partition.td_partition") + setup_s("partition.partition_graph"), "s")
    m["core.build_treedec_s"] = (setup_s("core.build_treedec"), "s")
    m["core.build_labels_setup_s"] = (setup_s("core.build_labels"), "s")
    m["core.label_rows_setup"] = (setup_counts.get("core.label_rows_recomputed@setup", 0.0),
                                  "count")
    m["psp.build_s"] = (setup_s("psp.build"), "s")
    bt = run.idx.build_times
    for p, keys in BUILD_KEYS.items():
        for k in keys:
            m[f"{p}.build.{k}_s"] = (reported_seconds(bt[k]) if p == w.algo else 0.0, "s")

    def per(name: str, ctx: str) -> tuple[float, float]:
        c, s = tr.total(name, ctx)
        return c / n_int, s / n_int

    m["core.update_shortcuts_s"] = (per("core.update_shortcuts", "maint")[1], "s/interval")
    rec = tr.counts.get("core.sc_pairs_recomputed@maint", 0.0) / n_int
    chg = tr.counts.get("core.sc_pairs_changed@maint", 0.0) / n_int
    m["core.sc_pairs_recomputed"] = (rec, "count/interval")
    m["core.sc_pairs_changed"] = (chg, "count/interval")
    m["core.sc_useful_ratio"] = (chg / rec if rec else 0.0, "ratio")
    m["core.build_labels_maint_s"] = (per("core.build_labels", "maint")[1], "s/interval")
    m["core.label_rows_recomputed"] = (
        tr.counts.get("core.label_rows_recomputed@maint", 0.0) / n_int, "count/interval")
    for name, key in (("h2h_query", "h2h_query"), ("ch_query_rows", "ch_query"),
                      ("bidijkstra", "bidijkstra")):
        c, s = per(f"core.{name}", "serve")
        m[f"core.{key}_s"] = (s, "s/interval")
        m[f"core.{key}_calls"] = (c, "count/interval")
    c, s = per("core.h2h_query", "maint")
    m["core.h2h_query_maint_s"] = (s, "s/interval")
    m["core.h2h_query_maint_calls"] = (c, "count/interval")
    c, s = per("pmhl.hub_query", "serve")
    m["pmhl.hub_query_s"] = (s, "s/interval")
    m["pmhl.hub_query_calls"] = (c, "count/interval")
    m.update(_stage_metrics(w.algo, res["outs"]))
    m.update(run.layer_metrics(res))

    # Self time per layer: set-up in seconds, the traced replay per interval.
    selfs = layer_self(setup_agg, "setup")
    for layer in ("graphs", "partition", "core", "psp"):
        m[f"self.{layer}_setup_s"] = (selfs.get(layer, 0.0), "s")
    for ctx, layers in (("maint", ("core", "psp")), ("serve", ("core", "pmhl", "psp"))):
        selfs = layer_self(tr.agg, ctx)
        for layer in layers:
            m[f"self.{layer}_{ctx}_s"] = (selfs.get(layer, 0.0) / n_int, "s/interval")
    traced_top = sum(a[1] for (n, c), a in tr.agg.items() if n.startswith("psp."))
    m["self.replay_s"] = ((res["wall_s"] - traced_top) / n_int, "s/interval")

    lam, _ = rep.lambda_star()
    lam0, _ = base["replay"].lambda_star()
    upd = float(np.median(res["walls"]))
    upd0 = float(np.median(base["walls"]))
    m["trace.update_s_p50"] = (upd, "s")
    m["trace.untraced_update_s_p50"] = (upd0, "s")
    m["trace.overhead_update_frac"] = (upd / upd0 - 1.0, "ratio")
    m["trace.lambda_star_qps"] = (lam, "q/s")
    m["trace.untraced_lambda_star_qps"] = (lam0, "q/s")
    m["trace.overhead_lambda_frac"] = (lam / lam0 - 1.0, "ratio")
    m["trace.post_s"] = (tr.counts.get("trace.post_s", 0.0) / n_int, "s/interval")

    model = run.model_lambda(base)
    m["throughput.model_lambda_qps"] = (model, "q/s")
    m["throughput.model_over_measured"] = (model / lam0, "ratio")

    spark: dict = {}
    if w.spark_layer:
        from spark_layer import measure_sparkdist

        spark = measure_sparkdist(run, run_dir)
    m.update(spark_metrics(spark))

    # U-stage seconds + unaccounted = outside wall, per interval.
    u_keys = ["graphs.u1_s"] + [f"{w.algo}.{k}" for k in U_STAGES[w.algo] if k.endswith("_s")]
    residual = (m["maint.wall_s"][0] - m["maint.unaccounted_s"][0]
                - sum(m[k][0] for k in u_keys))
    extra = dict(traced_intervals=n_int, untraced_intervals=base["replay"].intervals,
                 spans=len(tr.spans), maint_identity_residual_s=residual)
    tr.dump(os.path.join(run_dir, f"trace-{w.name}-seed{run.seed}.json"),
            dict(workload=w.name, seed=run.seed))
    return m, extra


SPARK_KEYS = ("session_s", "label_rows_s", "upload_s", "fanout_s", "fanout_local_s",
              "query_df_s", "join_collect_s", "batch_qps")


def spark_metrics(spark: dict) -> dict:
    units = {"batch_qps": "q/s"}
    return {f"sparkdist.{k}": (float(spark.get(k, 0.0)), units.get(k, "s")) for k in SPARK_KEYS}
