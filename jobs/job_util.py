"""Shared argument parsing / printing for the table-reproduction jobs.

Each job is a ``spark-submit``-able (or plain ``python``) entrypoint
that regenerates one EXPERIMENTS.md table. Jobs that need Spark build
the session themselves; pure-driver experiments do not start a JVM.
"""
from __future__ import annotations

import argparse
import os
import sys

# Jobs run as scripts from any working directory: put the in-tree package
# (<repo>/src) on the path before anything imports ``repro``.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.experiments.runner import fmt_table, save_results  # noqa: E402


def parse(datasets_default: str, desc: str, tag: str) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=desc)
    ap.add_argument("--datasets", default=datasets_default,
                    help="comma-separated dataset names from the registry")
    ap.add_argument("--tag", default=None,
                    help=f"results/<tag>.json output name (default {tag}, "
                         "written only when --datasets is left at its default)")
    args = ap.parse_args()
    # results/<tag>.json holds the whole table: a run over other datasets
    # saves nothing unless it names its own tag.
    if args.tag is None and args.datasets == datasets_default:
        args.tag = tag
    return args


def emit(rows: list[dict], cols: list[str], title: str, tag: str | None) -> None:
    print(fmt_table(rows, cols, title))
    if tag:
        print(f"[saved] {save_results(tag, rows)}")
