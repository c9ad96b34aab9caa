"""Round-4 continuation: Q5 six-table join, Q4 EXISTS semi-join,
winsorized value stats."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.events import (
    winsorized_value_stats,
)
from archivesspace_virgo_ray.pipelines.oracles.tpch import (
    Q4_WINDOW,
    Q5_REGION,
    Q5_YEAR,
    q4_order_priority,
    q5_local_supplier_volume,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_q5_same_nation_in_region_only(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "region", pa.table({
        "r_regionkey": pa.array([0, 1], pa.int32()),
        "r_name": pa.array([Q5_REGION, "OTHER"], pa.string()),
    }))
    _write(d, "nation", pa.table({
        "n_nationkey": pa.array([0, 1, 2], pa.int32()),
        "n_name": pa.array(["FR", "DE", "XX"], pa.string()),
        "n_regionkey": pa.array([0, 0, 1], pa.int32()),
    }))
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([100, 101, 102], pa.int64()),
        "s_nationkey": pa.array([0, 1, 2], pa.int32()),
    }))
    _write(d, "customer", pa.table({
        "c_custkey": pa.array([10, 11, 12], pa.int64()),
        "c_nationkey": pa.array([0, 0, 2], pa.int32()),
    }))
    in_y = pd.Timestamp(f"{Q5_YEAR}-06-01")
    out_y = pd.Timestamp(f"{Q5_YEAR - 1}-06-01")
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_custkey": pa.array([10, 11, 12, 10], pa.int64()),
        "o_orderdate": pa.array([in_y, in_y, in_y, out_y], pa.timestamp("us")),
    }))
    # order 1 (cust FR) x supp FR -> counts; x supp DE -> nation mismatch
    # order 2 (cust FR) x supp FR -> counts
    # order 3 (cust XX) x supp XX -> same nation but region OTHER
    # order 4 out of the year window
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3, 4], pa.int64()),
        "l_suppkey": pa.array([100, 101, 100, 102, 100], pa.int64()),
        "l_extendedprice": pa.array([100.0, 999.0, 50.0, 777.0, 888.0]),
        "l_discount": pa.array([0.1, 0.0, 0.0, 0.0, 0.0]),
    }))
    out = q5_local_supplier_volume(str(d))
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["n_name"], r["revenue"], r["n_items"]) == ("FR", 140.0, 2)


def test_q4_exists_semantics(ray_session, tmp_path):
    d = tmp_path / "sf"
    lo = pd.Timestamp(Q4_WINDOW[0])
    # order 1: two late lineitems -> counted ONCE; order 2: ships same day
    # (not late) -> excluded; order 3: no lineitem -> excluded
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderdate": pa.array([lo, lo + pd.Timedelta(days=3), lo],
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT", "1-URGENT", "2-HIGH"],
                                    pa.string()),
    }))
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([1, 1, 2], pa.int64()),
        "l_shipdate": pa.array([lo + pd.Timedelta(days=10),
                                lo + pd.Timedelta(days=20),
                                lo + pd.Timedelta(days=3)],
                               pa.timestamp("us")),
    }))
    out = q4_order_priority(str(d))
    assert out["o_orderpriority"].tolist() == ["1-URGENT"]
    assert out["order_count"].tolist() == [1]


def test_winsorized_planted(ray_session, tmp_path):
    d = tmp_path / "sf"
    # 200 zeros/ones plus two extreme outliers; p01/p99 land inside [0, 1]
    v = [0.0] * 100 + [1.0] * 100 + [-1000.0, 1000.0]
    _write(d, "events", pa.table({"value": pa.array(v)}))
    out = winsorized_value_stats(str(d))
    r = out.iloc[0]
    assert r["n_clipped_low"] == 1 and r["n_clipped_high"] == 1
    # clipped mean must sit strictly inside [lo, hi]
    assert r["lo"] <= r["winsorized_mean"] <= r["hi"]
    # exact check against numpy on the same rounded thresholds
    arr = np.array(v)
    lo, hi = r["lo"], r["hi"]
    assert r["winsorized_mean"] == round(float(np.clip(arr, lo, hi).mean()), 6)


