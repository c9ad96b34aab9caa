"""Round-4 continuation: Q7 volume shipping, Q8 market share, Q9 profit,
Q2 min-cost supplier, Q11 important parts, Q21 waiting suppliers, Q12
priority-by-delay — planted-fixture semantics checks."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.tpch import (
    Q2_SIZE,
    Q7_NATIONS,
    Q7_SHIP_WINDOW,
    Q8_NATION,
    Q8_REGION,
    Q8_TYPE,
    Q11_NATION,
    Q12_LATE_DAYS,
    Q21_LATE_DAYS,
    q2_min_cost_supplier,
    q7_volume_shipping,
    q8_market_share,
    q9_profit_by_nation_year,
    q11_important_parts,
    q12_priority_by_delay,
    q21_waiting_suppliers,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def _nations(d, names_regions):
    _write(d, "nation", pa.table({
        "n_nationkey": pa.array(range(len(names_regions)), pa.int32()),
        "n_name": pa.array([n for n, _ in names_regions], pa.string()),
        "n_regionkey": pa.array([r for _, r in names_regions], pa.int32()),
    }))


def test_q7_directional_pairs_only(ray_session, tmp_path):
    d = tmp_path / "sf"
    a, b = Q7_NATIONS
    _nations(d, [(a, 0), (b, 0), ("OTHER", 0)])
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_nationkey": pa.array([0, 1, 2], pa.int32()),
    }))
    _write(d, "customer", pa.table({
        "c_custkey": pa.array([10, 11, 12], pa.int64()),
        "c_nationkey": pa.array([0, 1, 2], pa.int32()),
    }))
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([100, 101, 102], pa.int64()),
        "o_custkey": pa.array([11, 10, 12], pa.int64()),
    }))
    in_w = pd.Timestamp(Q7_SHIP_WINDOW[0]) + pd.Timedelta(days=40)
    out_w = pd.Timestamp(Q7_SHIP_WINDOW[1]) + pd.Timedelta(days=1)
    # a->b in window; b->a in window; a->OTHER dropped; a->b out of window
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([100, 101, 102, 100], pa.int64()),
        "l_suppkey": pa.array([1, 2, 1, 1], pa.int64()),
        "l_extendedprice": pa.array([100.0, 200.0, 300.0, 400.0]),
        "l_discount": pa.array([0.0, 0.5, 0.0, 0.0]),
        "l_shipdate": pa.array([in_w, in_w, in_w, out_w],
                               pa.timestamp("us")),
    }))
    out = q7_volume_shipping(str(d))
    assert len(out) == 2
    got = {(r["supp_nation"], r["cust_nation"]): r["revenue"]
           for _, r in out.iterrows()}
    assert got[(a, b)] == 100.0
    assert got[(b, a)] == 100.0


def test_q8_share_by_year(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "region", pa.table({
        "r_regionkey": pa.array([0, 1], pa.int32()),
        "r_name": pa.array([Q8_REGION, "ELSEWHERE"], pa.string()),
    }))
    _nations(d, [(Q8_NATION, 0), ("N_IN", 0), ("N_OUT", 1)])
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_nationkey": pa.array([0, 1], pa.int32()),
    }))
    _write(d, "customer", pa.table({
        "c_custkey": pa.array([10, 11], pa.int64()),
        "c_nationkey": pa.array([1, 2], pa.int32()),
    }))
    _write(d, "part", pa.table({
        "p_partkey": pa.array([5, 6], pa.int64()),
        "p_type": pa.array([Q8_TYPE, "STANDARD"], pa.string()),
    }))
    y0 = pd.Timestamp("1996-06-01")
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([100, 101], pa.int64()),
        "o_custkey": pa.array([10, 11], pa.int64()),
        "o_orderdate": pa.array([y0, y0], pa.timestamp("us")),
    }))
    # share-nation supplies 30 of 120 in-region PROMO volume; order 101's
    # customer is out of region; part 6 is not PROMO
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([100, 100, 100, 101], pa.int64()),
        "l_partkey": pa.array([5, 5, 6, 5], pa.int64()),
        "l_suppkey": pa.array([1, 2, 1, 1], pa.int64()),
        "l_extendedprice": pa.array([30.0, 90.0, 50.0, 70.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0]),
    }))
    out = q8_market_share(str(d))
    assert out["o_year"].tolist() == [1996]
    assert out["mkt_share"].tolist() == [0.25]


def test_q9_cost_proxy_profit(ray_session, tmp_path):
    d = tmp_path / "sf"
    _nations(d, [("NA", 0), ("NB", 0)])
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_nationkey": pa.array([0, 1], pa.int32()),
    }))
    _write(d, "part", pa.table({
        "p_partkey": pa.array([5, 6], pa.int64()),
        "p_name": pa.array(["red widget", "blue bolt"], pa.string()),
        "p_retailprice": pa.array([10.0, 10.0]),
    }))
    y0 = pd.Timestamp("1997-03-01")
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([100], pa.int64()),
        "o_orderdate": pa.array([y0], pa.timestamp("us")),
    }))
    # profit = 100*(1-0.1) - 0.5*10*2 = 80 for the red part; blue dropped
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([100, 100], pa.int64()),
        "l_partkey": pa.array([5, 6], pa.int64()),
        "l_suppkey": pa.array([1, 2], pa.int64()),
        "l_quantity": pa.array([2.0, 3.0]),
        "l_extendedprice": pa.array([100.0, 500.0]),
        "l_discount": pa.array([0.1, 0.0]),
    }))
    out = q9_profit_by_nation_year(str(d))
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["n_name"], r["o_year"], r["profit"]) == ("NA", 1997, 80.0)


def test_q2_argmin_ties_and_filter(ray_session, tmp_path):
    d = tmp_path / "sf"
    _nations(d, [("NA", 0)])
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["S1", "S2", "S3"], pa.string()),
        "s_nationkey": pa.array([0, 0, 0], pa.int32()),
        "s_acctbal": pa.array([5.0, 9.0, 1.0]),
    }))
    _write(d, "part", pa.table({
        "p_partkey": pa.array([5, 6], pa.int64()),
        "p_size": pa.array([Q2_SIZE, Q2_SIZE + 1], pa.int32()),
    }))
    # part 5: suppliers 1 and 2 tie at unit 2.0, supplier 3 at 4.0;
    # part 6 is the wrong size
    _write(d, "lineitem", pa.table({
        "l_partkey": pa.array([5, 5, 5, 6], pa.int64()),
        "l_suppkey": pa.array([1, 2, 3, 3], pa.int64()),
        "l_extendedprice": pa.array([20.0, 10.0, 40.0, 1.0]),
        "l_quantity": pa.array([10.0, 5.0, 10.0, 1.0]),
    }))
    out = q2_min_cost_supplier(str(d))
    assert out["s_suppkey"].tolist() == [2, 1]  # acctbal desc
    assert out["min_price"].tolist() == [2.0, 2.0]
    assert out["p_partkey"].tolist() == [5, 5]


def test_q11_max_threshold(ray_session, tmp_path):
    d = tmp_path / "sf"
    _nations(d, [(Q11_NATION, 0), ("OTHER", 0)])
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_nationkey": pa.array([0, 1], pa.int32()),
    }))
    # part 5 value 1000 (max), part 6 value 100 (< 20% of max), part 7
    # only via the OTHER-nation supplier -> excluded entirely
    _write(d, "lineitem", pa.table({
        "l_partkey": pa.array([5, 6, 7], pa.int64()),
        "l_suppkey": pa.array([1, 1, 2], pa.int64()),
        "l_quantity": pa.array([10.0, 1.0, 100.0]),
        "l_extendedprice": pa.array([100.0, 100.0, 100.0]),
    }))
    out = q11_important_parts(str(d))
    assert out["p_partkey"].tolist() == [5]
    assert out["value"].tolist() == [1000.0]


def test_q21_lone_late_supplier(ray_session, tmp_path):
    d = tmp_path / "sf"
    t0 = pd.Timestamp("1996-01-01")
    late = t0 + pd.Timedelta(days=Q21_LATE_DAYS + 5)
    ontime = t0 + pd.Timedelta(days=1)
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_name": pa.array(["S1", "S2"], pa.string()),
    }))
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([100, 101, 102, 103], pa.int64()),
        "o_orderdate": pa.array([t0] * 4, pa.timestamp("us")),
        "o_orderstatus": pa.array(["F", "F", "F", "O"], pa.string()),
    }))
    # 100: supp 1 late, supp 2 on time -> counts for S1
    # 101: both late -> nobody counts
    # 102: single-supplier order, late -> dropped (needs >= 2 suppliers)
    # 103: status O -> dropped
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([100, 100, 101, 101, 102, 103, 103],
                               pa.int64()),
        "l_suppkey": pa.array([1, 2, 1, 2, 1, 1, 2], pa.int64()),
        "l_shipdate": pa.array([late, ontime, late, late, late, late,
                                ontime], pa.timestamp("us")),
    }))
    out = q21_waiting_suppliers(str(d))
    assert out["s_name"].tolist() == ["S1"]
    assert out["numwait"].tolist() == [1]


def test_q12_worst_delay_buckets(ray_session, tmp_path):
    d = tmp_path / "sf"
    t0 = pd.Timestamp("1996-01-01")
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([100, 101], pa.int64()),
        "o_orderdate": pa.array([t0, t0], pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT", "5-LOW"], pa.string()),
    }))
    # order 100: delays 1 and 50 -> worst 50 -> late/high
    # order 101: delay 2 -> ontime/low
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([100, 100, 101], pa.int64()),
        "l_shipdate": pa.array([
            t0 + pd.Timedelta(days=1),
            t0 + pd.Timedelta(days=Q12_LATE_DAYS + 5),
            t0 + pd.Timedelta(days=2),
        ], pa.timestamp("us")),
    }))
    out = q12_priority_by_delay(str(d))
    got = {(r["delay_bucket"], r["priority_class"]): r["order_count"]
           for _, r in out.iterrows()}
    assert got == {("late", "high"): 1, ("ontime", "low"): 1}
