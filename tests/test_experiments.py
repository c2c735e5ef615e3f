"""Measurement runner + table generators (smoke-level, small configs)."""
import math

import pytest

from repro.experiments.runner import AlgoResult, fmt_table, measure_dataset
from repro.experiments.exp_tables import t1_rows
from repro.experiments.harness import QueryStats


@pytest.fixture(scope="module")
def ny_records():
    return measure_dataset("NY", ["BiDij", "DCH", "DH2H", "PMHL", "PostMHL"],
                           n_batches=2, n_queries=30)


def test_records_present(ny_records):
    assert set(ny_records) == {"BiDij", "DCH", "DH2H", "PMHL", "PostMHL"}


def test_stage_orderings(ny_records):
    for a, r in ny_records.items():
        assert next(iter(r.stage_q)) == "bidij"
        assert len(r.walls) == len(r.stage_q) - 1  # one go-live wall per later stage
        assert r.walls == sorted(r.walls)


def test_hop_indexes_much_faster_than_search(ny_records):
    """The core premise: hub labeling ≫ search-based query speed."""
    assert ny_records["DH2H"].tq * 20 < ny_records["BiDij"].tq
    assert ny_records["PostMHL"].tq * 20 < ny_records["BiDij"].tq


def test_stages_partition_interval(ny_records):
    for a, r in ny_records.items():
        st = r.stages_for(10.0)
        assert sum(s.duration for s in st) == pytest.approx(10.0)
        assert all(s.duration >= 0 for s in st)


def test_throughput_positive_and_ranked(ny_records):
    lam = {a: r.throughput(10.0, 0.1) for a, r in ny_records.items()}
    assert all(v > 0 for v in lam.values())
    # headline result: the multi-stage PSP indexes beat the search baselines
    assert lam["PostMHL"] > lam["DCH"] > lam["BiDij"]
    assert lam["PMHL"] > lam["DCH"]


def test_update_exceeds_interval_gives_zero(ny_records):
    r = ny_records["DH2H"]
    assert r.throughput(r.tu * 0.5, 0.1) == 0.0


def test_stages_for_degenerate_interval():
    q = QueryStats(mean=0.01, var=0.0, n=1)
    r = AlgoResult("X", 0.0, 0, {"q": q, "q2": q}, [5.0])
    st = r.stages_for(2.0)  # wall beyond dt: single truncated stage
    assert sum(s.duration for s in st) == pytest.approx(2.0)


def test_fmt_table_renders():
    rows = [dict(a=1, b=0.5), dict(a=22, b=None)]
    text = fmt_table(rows, ["a", "b"], "title")
    assert "title" in text and "22" in text and "-" in text


def test_t1_rows_cover_registry():
    rows = t1_rows()
    assert len(rows) == 8
    assert all(r["paper_V"] > 100 * r["V"] for r in rows)
