"""Round-4 continuation: A/B conversion z-test, per-event session ids."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.events import (
    SESSION_GAP_MIN,
    ab_conversion_ztest,
    event_session_ids,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_ab_ztest_planted(ray_session, tmp_path):
    d = tmp_path / "sf"
    # group A (even ids): users 0, 2 -> 0 converts; group B (odd): 1, 3 ->
    # both convert. Duplicate purchase events must not double count.
    _write(d, "events", pa.table({
        "user_id": pa.array([0, 0, 2, 1, 1, 3], pa.int64()),
        "event_type": pa.array(
            ["purchase", "purchase", "view", "purchase", "view", "purchase"],
            pa.string()),
    }))
    out = ab_conversion_ztest(str(d)).iloc[0]
    assert (out["n_a"], out["n_b"]) == (2, 2)
    assert out["rate_a"] == 0.5 and out["rate_b"] == 1.0
    p = 3 / 4
    z = (0.5 - 1.0) / np.sqrt(p * (1 - p) * (1 / 2 + 1 / 2))
    assert out["z"] == round(float(z), 6)


def test_session_ids_gap_semantics(ray_session, tmp_path):
    d = tmp_path / "sf"
    t0 = pd.Timestamp("2024-01-01 00:00:00")
    gap = pd.Timedelta(minutes=SESSION_GAP_MIN)
    _write(d, "events", pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "user_id": pa.array([7, 7, 7, 7, 8], pa.int64()),
        "ts": pa.array([
            t0,
            t0 + pd.Timedelta(minutes=5),        # same session
            t0 + pd.Timedelta(minutes=5) + gap,  # exactly the gap: same
            t0 + pd.Timedelta(hours=3),          # new session
            t0,                                  # other user starts at 1
        ], pa.timestamp("us")),
    }))
    out = event_session_ids(str(d)).to_pandas().set_index("event_id")
    assert out.loc[1, "session_id"] == 1
    assert out.loc[2, "session_id"] == 1
    assert out.loc[3, "session_id"] == 1  # boundary is strictly-greater
    assert out.loc[4, "session_id"] == 2
    assert out.loc[5, "session_id"] == 1


def test_supplier_pctrank_ties_and_singleton(ray_session, tmp_path):
    from archivesspace_virgo_ray.pipelines.oracles.tpch import (
        supplier_balance_pctrank,
    )

    d = tmp_path / "sf"
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "s_nationkey": pa.array([0, 0, 0, 0, 1], pa.int32()),
        "s_acctbal": pa.array([10.0, 20.0, 20.0, 30.0, 99.0]),
    }))
    _write(d, "nation", pa.table({
        "n_nationkey": pa.array([0, 1], pa.int32()),
        "n_name": pa.array(["FR", "US"], pa.string()),
    }))
    out = supplier_balance_pctrank(str(d)).set_index("s_suppkey")
    assert out.loc[1, "pct_rank"] == 0.0
    # tie at 20.0 shares the min rank: (2-1)/3
    assert out.loc[2, "pct_rank"] == round(1 / 3, 6)
    assert out.loc[3, "pct_rank"] == round(1 / 3, 6)
    assert out.loc[4, "pct_rank"] == 1.0
    # singleton nation -> percent_rank 0
    assert out.loc[5, "pct_rank"] == 0.0


def test_silhouette_separated_blobs(ray_session, tmp_path):
    import numpy as np

    from archivesspace_virgo_ray.pipelines.oracles.ann import label_silhouette

    d = tmp_path / "sf"
    rng = np.random.default_rng(9)
    A = rng.standard_normal((20, 3)) * 0.05
    B = rng.standard_normal((20, 3)) * 0.05 + 10.0
    X = np.vstack([A, B]).astype(np.float32)
    _write(d, "embeddings", pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in X],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * 20 + [1] * 20, pa.int32()),
    }))
    out = label_silhouette(str(d)).set_index("label")
    # well-separated blobs -> silhouette near 1 for both labels
    assert out.loc[0, "silhouette"] > 0.97
    assert out.loc[1, "silhouette"] > 0.97
    assert out.loc[0, "n"] == 20
