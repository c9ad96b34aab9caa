"""Round-4 continuation: Q10 returned items, Q14 promo share, Q19 bracket
revenue, Q22 churned idle balances, per-customer order-gap windows."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.tpch import (
    Q22_ACTIVE_SINCE,
    customer_order_gaps,
    q10_returned_items,
    q14_promo_revenue,
    q19_bracket_revenue,
    q22_idle_balance,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_q10_returned_only_in_window(ray_session, tmp_path):
    d = tmp_path / "sf"
    # order 1 (in window, cust 10): R rows 100*(1-0.1) + 50 = 140
    # order 2 (in window, cust 11): only N rows -> excluded
    # order 3 (OUT of window, cust 10): R row -> excluded
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2, 3], pa.int64()),
        "l_extendedprice": pa.array([100.0, 50.0, 999.0, 80.0, 70.0]),
        "l_discount": pa.array([0.1, 0.0, 0.0, 0.0, 0.0]),
        "l_returnflag": pa.array(["R", "R", "N", "N", "R"], pa.string()),
    }))
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([10, 11, 10], pa.int64()),
        "o_orderdate": pa.array([pd.Timestamp("1996-02-01"),
                                 pd.Timestamp("1996-03-01"),
                                 pd.Timestamp("1995-01-01")],
                                pa.timestamp("us")),
    }))
    _write(d, "customer", pa.table({
        "c_custkey": pa.array([10, 11], pa.int64()),
        "c_name": pa.array(["alice", "bob"], pa.string()),
        "c_nationkey": pa.array([0, 0], pa.int32()),
    }))
    _write(d, "nation", pa.table({
        "n_nationkey": pa.array([0], pa.int32()),
        "n_name": pa.array(["FR"], pa.string()),
    }))
    out = q10_returned_items(str(d))
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["c_custkey"], r["c_name"], r["n_name"]) == (10, "alice", "FR")
    assert r["revenue"] == 140.0 and r["n_items"] == 2


def test_q14_promo_share(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "part", pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_type": pa.array(["PROMO", "SMALL"], pa.string()),
    }))
    # Jan 1996: promo 90 of total 190; Feb: no promo; 1995 row excluded
    _write(d, "lineitem", pa.table({
        "l_partkey": pa.array([1, 2, 2, 1], pa.int64()),
        "l_extendedprice": pa.array([100.0, 100.0, 40.0, 1000.0]),
        "l_discount": pa.array([0.1, 0.0, 0.0, 0.0]),
        "l_shipdate": pa.array([pd.Timestamp("1996-01-05"),
                                pd.Timestamp("1996-01-20"),
                                pd.Timestamp("1996-02-01"),
                                pd.Timestamp("1995-06-01")],
                               pa.timestamp("us")),
    }))
    out = q14_promo_revenue(str(d)).set_index("ship_month")
    assert list(out.index) == ["1996-01", "1996-02"]
    assert out.loc["1996-01", "promo_share_pct"] == round(100 * 90 / 190, 6)
    assert out.loc["1996-02", "promo_share_pct"] == 0.0
    assert out.loc["1996-01", "total_revenue"] == 190.0


def test_q19_brackets_and_empty_arm(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "part", pa.table({
        "p_partkey": pa.array([1, 2, 3], pa.int64()),
        "p_type": pa.array(["SMALL", "MEDIUM", "LARGE"], pa.string()),
        "p_size": pa.array([5, 20, 45], pa.int32()),
    }))
    _write(d, "lineitem", pa.table({
        "l_partkey": pa.array([1, 1, 2, 3], pa.int64()),
        # small arm: qty 1-15 -> first matches, second (qty 16) misses
        # medium arm: qty 10-30 -> matches
        # large arm: qty 20-50 -> qty 10 misses -> arm absent
        "l_quantity": pa.array([10.0, 16.0, 25.0, 10.0]),
        "l_extendedprice": pa.array([100.0, 999.0, 200.0, 50.0]),
        "l_discount": pa.array([0.0, 0.0, 0.5, 0.0]),
    }))
    out = q19_bracket_revenue(str(d)).set_index("bracket")
    assert list(out.index) == ["medium", "small"]
    assert out.loc["small", "revenue"] == 100.0
    assert out.loc["small", "n_items"] == 1
    assert out.loc["medium", "revenue"] == 100.0


def test_q22_churned_above_average(ray_session, tmp_path):
    d = tmp_path / "sf"
    # positive balances: 100, 300 -> avg 200. cust 1 (bal 300) churned ->
    # kept; cust 2 (bal 300) ordered after cutoff -> dropped; cust 3
    # (bal 100) below avg -> dropped; cust 4 negative -> dropped.
    _write(d, "customer", pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_acctbal": pa.array([300.0, 300.0, 100.0, -50.0]),
        "c_mktsegment": pa.array(["AUTO", "AUTO", "AUTO", "AUTO"],
                                 pa.string()),
    }))
    cut = pd.Timestamp(Q22_ACTIVE_SINCE)
    _write(d, "orders", pa.table({
        "o_custkey": pa.array([1, 2], pa.int64()),
        "o_orderdate": pa.array([cut - pd.Timedelta(days=40),
                                 cut + pd.Timedelta(days=5)],
                                pa.timestamp("us")),
    }))
    out = q22_idle_balance(str(d))
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["c_mktsegment"], r["numcust"], r["totacctbal_cents"]) == (
        "AUTO", 1, 30000)
    # avg(300) == 300*2 > 400? exact-integer comparison keeps bal == avg out
    # (strict >): 300*2=600 > 400 yes — but a bal exactly at the average is
    # excluded: 200*2 == 400 would not pass.


def test_customer_order_gaps_window(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "o_custkey": pa.array([7, 7, 7, 8, 9], pa.int64()),
        "o_orderdate": pa.array([pd.Timestamp("1996-01-01"),
                                 pd.Timestamp("1996-01-11"),
                                 pd.Timestamp("1996-01-13"),
                                 pd.Timestamp("1996-05-01"),
                                 pd.Timestamp("1996-06-01")],
                                pa.timestamp("us")),
    }))
    out = customer_order_gaps(str(d))
    # single-order customers 8 and 9 emit nothing
    assert out["c_custkey"].tolist() == [7]
    r = out.iloc[0]
    assert r["n_orders"] == 3
    assert r["avg_gap_days"] == 6.0  # gaps 10 and 2
    assert r["max_gap_days"] == 10
