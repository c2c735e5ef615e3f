"""Executed-replay serving benchmark for PostMHL / PMHL.

Usage (from the repository root):

    python3 perfbench/run.py --workload read --seed 1 --seconds 30 --trace 0

Serves a real Poisson query stream against the real index while real
update batches run, on a virtual clock with one FIFO query server (the
paper's M/G/1 system, see ``replay.py``). The arrival generator is
virtual and never runs late. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it prints the per-layer metrics of a traced
run instead (see ``tracing.py``). The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

All files the run writes go under ``.bench_run/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")


def bootstrap() -> None:
    """Make ``repro`` importable here and in Spark's Python workers."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # Spark's Python workers inherit PYTHONPATH from the JVM's environment,
    # which inherits it from this process when the session starts.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
    os.makedirs(os.path.join(RUN_DIR, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(RUN_DIR, "tmp")


def manifest(args, extra: dict) -> dict:
    import platform
    import subprocess

    import numpy

    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    try:
        import pyspark

        spark_v = pyspark.__version__
    except ImportError:
        spark_v = "absent"
    return dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_rev=rev, src_sha1=src_digest(), nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(), numpy=numpy.__version__, spark=spark_v, **extra,
    )


def src_digest() -> str:
    """Content hash of src/, which identifies the program without git."""
    import hashlib

    h = hashlib.sha1()
    for d, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, SRC).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_serving(args) -> tuple[bool, int, int, dict, dict]:
    from serving import ServingRun
    from workloads import DATASET, WORKLOADS

    w = WORKLOADS[args.workload]
    run = ServingRun(w, args.seed)
    info: dict = dict(dataset=DATASET, algo=w.algo, volume=w.volume, dt=w.dt, rq=w.rq,
                      rates=list(w.rates), fixed_rate=w.fixed_rate)
    if args.trace:
        from tracing import traced_run

        metrics, extra = traced_run(run, args.seconds, RUN_DIR)
        info.update(extra)
    else:
        setup_s = run.setup()
        # The index's own footprint: the replay's queues come after this.
        rss_mb = peak_rss_mb()
        res = run.replay(args.seconds)
        e2e = run.end_to_end(res)
        lam = e2e["lambda_star_qps"][0]
        model = run.model_lambda(res)
        info.update(
            lambda_star_censored=e2e.pop("_censored"), resp_samples=e2e.pop("_resp_samples"),
            intervals=res["replay"].intervals, update_walls_s=res["walls"],
            update_walls_raw_s=res["walls_raw"], setup_raw_s=run.setup_raw_s,
            probes_s=run.clock.probes,
            model_lambda_qps=model,
            model_over_measured=model / lam, rungs=res["replay"].rung_summary(),
            resp_ms_mean=run.layer_metrics(res)["queue.resp_ms_mean"][0],
        )
        metrics = {"setup_s": (setup_s, "s"), **e2e}
        ok = 1.0 - run.failed / max(1, run.attempted)
        metrics["ok_frac"] = (ok, "ratio")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        metrics["index_entries"] = (float(run.index_entries), "count")
    info.update(n=run.n, m=run.m, checked=run.checked, wrong=run.wrong)
    correct = run.failed == 0 and run.checked > 0
    return correct, run.attempted, run.failed, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    t0 = time.perf_counter()
    correct, attempted, failed, metrics, info = run_serving(args)
    info["run_wall_s"] = time.perf_counter() - t0
    print("manifest " + json.dumps(manifest(args, info), default=float))
    print(f"correctness: attempted={attempted} failed={failed} "
          f"failed_frac={failed / max(1, attempted):.3g} checked={info['checked']} "
          f"wrong={info['wrong']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
