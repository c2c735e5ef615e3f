"""The ``sparkdist`` layer, measured in the traced run of the ``read`` workload.

The served PostMHL index's final labels are plain H2H labels (Remark 2),
so they are flattened to ``(v, hub, d)`` rows, uploaded once (Arrow into
a local relation), and fixed-size query batches go through the
``labels_df`` label join. The
``applyInPandas`` residual fan-out of ``parallel_build`` runs once on the
post-replay graph. The first batch warms Spark's code generation and is
not timed.

Checks, all untimed: every Spark answer against in-process ``h2h_query``;
one batch against the DuckDB oracle (``repro.oracle.assert_equivalent``);
the fan-out against ``local_residuals``.

Spark's Python workers import ``repro`` through the ``PYTHONPATH`` that
``run.bootstrap`` exports before the JVM starts. Spark's scratch files
go under ``.bench_run/``.
"""
from __future__ import annotations

import math
import os
import shlex
import time

import numpy as np

BATCH = 1000
BATCHES = 1          # timed, after one warm-up batch


def _session(run_dir: str):
    # Every scratch file under run_dir; no JVM perf-data file in /tmp.
    java_opts = f"-Djava.io.tmpdir={os.path.join(run_dir, 'tmp')} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master local[2] --driver-memory 1g",
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
        "--conf", shlex.quote(f"spark.local.dir={os.path.join(run_dir, 'spark')}"),
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={os.path.join(run_dir, 'warehouse')}"),
        "--driver-java-options", shlex.quote(java_opts), "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def _stop(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    spark.stop()
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
        proc.wait(timeout=120)
    SparkContext._gateway = None
    SparkContext._jvm = None


def measure_sparkdist(run, run_dir: str) -> dict:
    from repro.core.treedec import h2h_query
    from repro.graphs.generator import DATASETS
    from repro.oracle import assert_equivalent
    from repro.partition.partitioner import partition_graph
    from repro.sparkdist.labels_df import (
        TWO_HOP_SQL, batch_query_df, h2h_label_rows, queries_pdf)
    from repro.sparkdist.parallel_build import local_residuals, spark_residuals
    from workloads import DATASET

    idx = run.idx
    out: dict = {}
    t0 = time.perf_counter()
    spark = _session(run_dir)
    out["session_s"] = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        rows = h2h_label_rows(idx.td, idx.dis)
        out["label_rows_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        labels = spark.createDataFrame(rows)
        out["upload_s"] = time.perf_counter() - t0

        spec = DATASETS[DATASET]
        _, coords = spec.build()
        part = partition_graph(idx.graph, spec.k, coords)
        t0 = time.perf_counter()
        fan = spark_residuals(spark, idx.graph, part).toPandas()
        out["fanout_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = local_residuals(idx.graph, part)
        out["fanout_local_s"] = time.perf_counter() - t0
        key = ["pid", "u", "v"]
        run.checked += 1
        if not fan.sort_values(key).reset_index(drop=True).round(6).equals(
                ref.sort_values(key).reset_index(drop=True).round(6)):
            run.wrong += 1
            run.failed += 1

        rng = np.random.default_rng([run.seed, 1 << 22])
        qdf_s, join_s = [], []
        for b in range(BATCHES + 1):
            st = run.pair_fn(rng, BATCH)
            pairs = [(int(s), int(t)) for s, t in st]
            t0 = time.perf_counter()
            qpdf = queries_pdf(pairs)
            queries = spark.createDataFrame(qpdf)
            t1 = time.perf_counter()
            res_df = batch_query_df(labels, queries)
            got = res_df.toPandas()
            t2 = time.perf_counter()
            if b:
                qdf_s.append(t1 - t0)
                join_s.append(t2 - t1)
            run.attempted += len(pairs)
            dist = dict(zip(got["qid"].tolist(), got["dist"].tolist()))
            for q, (s, t) in enumerate(pairs):
                run.checked += 1
                want = h2h_query(idx.td, idx.dis, s, t)
                have = dist.get(q, math.inf)
                if not math.isclose(have, want, rel_tol=1e-9, abs_tol=1e-9):
                    run.wrong += 1
                    run.failed += 1
            if b == 1:
                run.checked += 1
                try:
                    assert_equivalent(res_df, TWO_HOP_SQL, labels=rows, queries=qpdf)
                except AssertionError:
                    run.wrong += 1
                    run.failed += 1
        out["query_df_s"] = float(np.median(qdf_s))
        out["join_collect_s"] = float(np.median(join_s))
        out["batch_qps"] = BATCH / float(np.median(np.add(qdf_s, join_s)))
    finally:
        _stop(spark)
    return out
