"""TPC-H Q20-style dominant suppliers: integer-exact majority-share test."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.tpch import (
    Q20_NAME_SUBSTR,
    Q20_WINDOW,
    q20_dominant_suppliers,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_q20_majority_share(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["S1", "S2", "S3"], pa.string()),
    }))
    _write(d, "part", pa.table({
        "p_partkey": pa.array([5, 6], pa.int64()),
        "p_name": pa.array([f"{Q20_NAME_SUBSTR} bolt", "red bolt"],
                           pa.string()),
    }))
    in_y = pd.Timestamp(Q20_WINDOW[0]) + pd.Timedelta(days=10)
    out_y = pd.Timestamp(Q20_WINDOW[1]) + pd.Timedelta(days=10)
    # part 5: S1 ships 6 of 10 (>half) -> dominant; S2 ships 4.
    # exactly-half must NOT qualify: S3's only shipment is on part 6
    # (name-filtered out) plus an out-of-year line on part 5.
    _write(d, "lineitem", pa.table({
        "l_partkey": pa.array([5, 5, 5, 6], pa.int64()),
        "l_suppkey": pa.array([1, 2, 3, 3], pa.int64()),
        "l_quantity": pa.array([6.0, 4.0, 100.0, 50.0]),
        "l_shipdate": pa.array([in_y, in_y, out_y, in_y], pa.timestamp("us")),
    }))
    out = q20_dominant_suppliers(str(d))
    assert out["s_name"].tolist() == ["S1"]


def test_q20_exact_half_excluded(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_name": pa.array(["S1", "S2"], pa.string()),
    }))
    _write(d, "part", pa.table({
        "p_partkey": pa.array([5], pa.int64()),
        "p_name": pa.array([f"{Q20_NAME_SUBSTR} ring"], pa.string()),
    }))
    in_y = pd.Timestamp(Q20_WINDOW[0]) + pd.Timedelta(days=10)
    _write(d, "lineitem", pa.table({
        "l_partkey": pa.array([5, 5], pa.int64()),
        "l_suppkey": pa.array([1, 2], pa.int64()),
        "l_quantity": pa.array([5.0, 5.0]),
        "l_shipdate": pa.array([in_y, in_y], pa.timestamp("us")),
    }))
    out = q20_dominant_suppliers(str(d))
    assert out.empty
