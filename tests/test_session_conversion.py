"""session_conversion_rate: planted sessions with known conversion."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.events import (
    SESSION_GAP_MIN,
    session_conversion_rate,
)


def test_planted_sessions(ray_session, tmp_path):
    d = tmp_path / "sf"
    d.mkdir(parents=True)
    t0 = pd.Timestamp("2024-01-02")
    gap = pd.Timedelta(minutes=SESSION_GAP_MIN + 5)
    # u1: session A (view, purchase) -> converts; session B (view) -> no
    # u2: one session (view, view) -> no
    ts = [t0, t0 + pd.Timedelta(minutes=5),
          t0 + pd.Timedelta(minutes=5) + gap,
          t0, t0 + pd.Timedelta(minutes=1)]
    uid = [1, 1, 1, 2, 2]
    et = ["view", "purchase", "view", "view", "view"]
    pq.write_table(pa.table({
        "event_id": pa.array(range(5), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(uid, pa.int64()),
        "event_type": pa.array(et, pa.string()),
        "value": pa.array([0.0] * 5),
    }), str(d / "events.parquet"))
    out = session_conversion_rate(str(d))
    r = out.iloc[0]
    assert (r["n_sessions"], r["n_converting"]) == (3, 1)
    assert r["conversion_rate"] == round(1 / 3, 6)
