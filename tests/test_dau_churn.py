"""Planted-fixture checks for rolling_7d_active_users (sliding distinct)
and churn_training_table (ML label/feature construction)."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.events import (
    CHURN_CUTOFF,
    churn_training_table,
    rolling_7d_active_users,
)


def _write_events(d, ts, user_id, event_type):
    d.mkdir(parents=True, exist_ok=True)
    n = len(ts)
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(n)), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(user_id, pa.int64()),
        "event_type": pa.array(event_type, pa.string()),
        "value": pa.array([0.0] * n),
    }), str(d / "events.parquet"))


def test_rolling_dau_window_union(ray_session, tmp_path):
    d = tmp_path / "sf"
    t0 = pd.Timestamp("2024-01-01")
    # user 1 active day0 and day0 again (dedup), user 2 active day 8.
    # day 0: {u1}=1. day 8: u1's window [2..8] misses day0 -> {u2}=1
    # (days 1-7 absent from the data so they are not anchor rows)
    ts = [t0, t0 + pd.Timedelta(hours=3), t0 + pd.Timedelta(days=8)]
    _write_events(d, ts, [1, 1, 2], ["view"] * 3)
    out = rolling_7d_active_users(str(d))
    assert out["day"].tolist() == [t0, t0 + pd.Timedelta(days=8)]
    assert out["active_users_7d"].tolist() == [1, 1]
    # move user 2 to day 5: u1(day0) is inside [..5] -> both count
    _write_events(d, [t0, t0 + pd.Timedelta(days=5)], [1, 2], ["view"] * 2)
    out = rolling_7d_active_users(str(d))
    assert out["active_users_7d"].tolist() == [1, 2]


def test_churn_labels_and_features(ray_session, tmp_path):
    d = tmp_path / "sf"
    cut = pd.Timestamp(CHURN_CUTOFF)
    ts = [cut - pd.Timedelta(days=2), cut - pd.Timedelta(days=1),
          cut + pd.Timedelta(days=1),           # u1 active after -> churned=0
          cut - pd.Timedelta(days=3),           # u2 only before -> churned=1
          cut + pd.Timedelta(days=2)]           # u3 only after -> zeros, 0
    _write_events(d, ts, [1, 1, 1, 2, 3],
                  ["view", "click", "view", "purchase", "signup"])
    out = churn_training_table(str(d))
    out = out.set_index("user_id")
    assert out.loc[1, ["n_view", "n_click", "churned"]].tolist() == [1, 1, 0]
    assert out.loc[2, ["n_purchase", "churned"]].tolist() == [1, 1]
    assert out.loc[3].tolist() == [0, 0, 0, 0, 0, 0]
