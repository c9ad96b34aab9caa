"""Planted-fixture checks for value_trend_by_type (least-squares over
sufficient stats) and event_dedup_rate (windowed LAG dedup)."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.events import (
    EVENT_DEDUP_WINDOW_US,
    TREND_EPOCH,
    event_dedup_rate,
    value_trend_by_type,
)


def _write_events(d, ts, user_id, event_type, value=None, event_id=None):
    d.mkdir(parents=True, exist_ok=True)
    n = len(ts)
    pq.write_table(pa.table({
        "event_id": pa.array(event_id or list(range(n)), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(user_id, pa.int64()),
        "event_type": pa.array(event_type, pa.string()),
        "value": pa.array(value or [0.0] * n),
    }), str(d / "events.parquet"))


def test_trend_exact_line(ray_session, tmp_path):
    d = tmp_path / "sf"
    t0 = pd.Timestamp(TREND_EPOCH)
    # value = 2*x + 1 exactly at days 0..4 -> slope 2, intercept 1
    ts = [t0 + pd.Timedelta(days=i) for i in range(5)]
    _write_events(d, ts, [1] * 5, ["view"] * 5,
                  value=[2.0 * i + 1.0 for i in range(5)])
    out = value_trend_by_type(str(d))
    r = out.iloc[0]
    assert (r["event_type"], r["n"]) == ("view", 5)
    assert r["slope"] == 2.0 and r["intercept"] == 1.0


def test_dedup_rate_window_semantics(ray_session, tmp_path):
    d = tmp_path / "sf"
    t0 = pd.Timestamp("2024-01-05")
    w = pd.Timedelta(microseconds=EVENT_DEDUP_WINDOW_US)
    ts = [
        t0,                      # u1 view: kept (first)
        t0 + w,                  # u1 view: within window (<=) -> dropped
        t0 + 3 * w,              # u1 view: beyond previous raw -> kept
        t0 + w // 2,             # u1 CLICK: different type -> kept
        t0 + w // 2,             # u2 view: different user -> kept
    ]
    _write_events(d, ts, [1, 1, 1, 1, 2],
                  ["view", "view", "view", "click", "view"])
    out = event_dedup_rate(str(d))
    got = {r["event_type"]: (r["n_events"], r["n_dropped"])
           for _, r in out.iterrows()}
    assert got == {"view": (4, 1), "click": (1, 0)}
