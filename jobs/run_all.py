"""Regenerate every EXPERIMENTS.md table in one process (shared cache).

This is the full reproduction run over the entire lite registry; the
dataset subsets per table mirror the paper's figure subsets. Output goes
to stdout and results/*.json.
"""
from __future__ import annotations

import sys
import time

import job_util  # noqa: F401  (puts <repo>/src on sys.path)
from repro.experiments import exp_tables as T
from repro.experiments.runner import fmt_table, save_results


def section(title: str, rows: list[dict], cols: list[str], tag: str) -> None:
    print("\n" + fmt_table(rows, cols, title), flush=True)
    save_results(tag, rows)


def main() -> None:
    t0 = time.time()
    all8 = ["NY", "GD", "FLA", "SC", "EC", "W", "CTR", "USA"]

    section("T1 — datasets (lite registry vs paper Table I)", T.t1_rows(),
            ["name", "paper", "paper_V", "paper_E", "V", "E", "k", "k_e", "tau"], "t1_datasets")

    section("T2 — index performance (Exp 2)", T.t2_rows(all8),
            ["dataset", "algo", "t_c_s", "size_entries", "t_q_ms", "t_u_s"], "t2_index_perf")
    print(f"[{time.time()-t0:.0f}s elapsed]", file=sys.stderr, flush=True)

    section("T3 — maximum average throughput λ_q* (Exp 3)", T.t3_rows(all8),
            ["dataset", "algo", "lambda_qps"], "t3_throughput")

    section("T5 — QPS evolution over the update interval (Exp 4)", T.t5_rows(["NY", "FLA"]),
            ["dataset", "algo", "t_start_s", "qps"], "t5_qps_evolution")

    section("T4 — PMHL vs partition number k (Exp 1)", T.t4_rows(["SC", "EC", "W"]),
            ["dataset", "k", "t_u_s", "lambda_qps"], "t4_partition_number")
    print(f"[{time.time()-t0:.0f}s elapsed]", file=sys.stderr, flush=True)

    section("T6 — throughput vs |U|, δt, R_q* (Exp 5)", T.t6_rows(["NY", "SC"]),
            ["dataset", "sweep", "value", "algo", "lambda_qps"], "t6_params")
    print(f"[{time.time()-t0:.0f}s elapsed]", file=sys.stderr, flush=True)

    section("T7 — update/throughput speedup vs p (Exp 6)", T.t7_rows(["NY", "FLA"]),
            ["dataset", "algo", "p", "t_u_s", "update_speedup", "lambda_qps", "throughput_speedup"],
            "t7_threads")

    section("T8 — PostMHL vs k_e (Exp 7)", T.t8_rows(["FLA", "EC", "W"]),
            ["dataset", "k_e", "k_actual", "t_u_s", "lambda_qps"], "t8_ke")
    print(f"[{time.time()-t0:.0f}s elapsed]", file=sys.stderr, flush=True)

    section("T9 — PostMHL vs bandwidth τ (Exp 8)", T.t9_rows(["NY", "FLA"]),
            ["dataset", "tau", "k_actual", "overlay_n", "tq_stage3_ms", "t_u_s", "lambda_qps"],
            "t9_bandwidth")

    print(f"\n[run_all done in {time.time()-t0:.0f}s]", flush=True)


if __name__ == "__main__":
    main()
