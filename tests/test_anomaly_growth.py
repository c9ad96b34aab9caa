"""Planted-fixture checks for events_anomaly_zscore and
orders_monthly_growth."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.events import (
    events_anomaly_zscore,
)
from archivesspace_virgo_ray.pipelines.oracles.tpch import (
    orders_monthly_growth,
)


def test_anomaly_flags_only_the_spike(ray_session, tmp_path):
    d = tmp_path / "sf"
    d.mkdir(parents=True)
    t0 = pd.Timestamp("2024-01-01")
    # 40 quiet hours with 1 event each + one hour with a 30-event burst
    ts, et = [], []
    for h in range(40):
        ts.append(t0 + pd.Timedelta(hours=h))
        et.append("view")
    burst = t0 + pd.Timedelta(hours=100)
    for m in range(30):
        ts.append(burst + pd.Timedelta(minutes=m))
        et.append("view")
    pq.write_table(pa.table({
        "event_id": pa.array(range(len(ts)), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1] * len(ts), pa.int64()),
        "event_type": pa.array(et, pa.string()),
        "value": pa.array([0.0] * len(ts)),
    }), str(d / "events.parquet"))
    out = events_anomaly_zscore(str(d))
    assert out["hour"].tolist() == [burst]
    assert out["n"].tolist() == [30]
    n = np.array([1.0] * 40 + [30.0])
    z = (30 - n.mean()) / np.sqrt((n ** 2).mean() - n.mean() ** 2)
    assert out["z"].iloc[0] == round(float(z), 6)


def test_monthly_growth_exact_ratio(ray_session, tmp_path):
    d = tmp_path / "sf"
    d.mkdir(parents=True)
    months = ["2024-01-15", "2024-02-15", "2024-03-15", "2024-03-20"]
    prices = [100.0, 150.0, 75.0, 75.0]
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(4), pa.int64()),
        "o_orderdate": pa.array([pd.Timestamp(m) for m in months],
                                pa.timestamp("us")),
        "o_totalprice": pa.array(prices),
    }), str(d / "orders.parquet"))
    out = orders_monthly_growth(str(d))
    # first month dropped; Feb +50%, Mar (150 -> 150) flat 0%
    assert len(out) == 2
    assert out["mom_growth"].tolist() == [0.5, 0.0]
    assert out["revenue"].tolist() == [150.0, 150.0]
