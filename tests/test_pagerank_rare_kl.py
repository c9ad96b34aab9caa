"""Round-4 continuation operators: hourly event moving average, embedding
alignment, cheapest-lineitem argmin, orders histogram, first-purchase
anti-join, keyed-fallback doc novelty."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def test_events_hourly_ma3_zero_fill(ray_session, tmp_path):
    d = tmp_path / "ev"
    d.mkdir(parents=True)
    ts = pd.to_datetime([
        "2026-01-01 00:10", "2026-01-01 00:20",  # hour 0: 2 events
        "2026-01-01 02:05",                      # hour 2: 1 (hour 1 empty)
    ])
    pq.write_table(
        pa.table({"ts": pa.array(ts, pa.timestamp("us")),
                  "user_id": pa.array([1, 2, 3], pa.int64()),
                  "event_id": pa.array([1, 2, 3], pa.int64()),
                  "event_type": pa.array(["a"] * 3),
                  "value": pa.array([1.0] * 3),
                  "props": pa.array(["{}"] * 3)}),
        str(d / "events.parquet"),
    )
    from archivesspace_virgo_ray.pipelines.oracles.events import (
        events_hourly_ma3,
    )

    out = events_hourly_ma3(str(d))
    assert list(out["n_events"]) == [2, 0, 1]  # hour 1 zero-filled
    assert list(out["deriv"]) == [0, -2, 1]
    assert np.allclose(out["ma3"], [2.0, 1.0, 1.0])


def test_alignment_matches_bruteforce(ray_session, tmp_path):
    rng = np.random.default_rng(7)
    n, d = 40, 8
    labels = rng.integers(0, 3, n).astype(np.int32)
    vecs = rng.standard_normal((n, d)).astype(np.float32)
    dd = tmp_path / "emb"
    dd.mkdir(parents=True)
    pq.write_table(
        pa.table({"vec_id": pa.array(np.arange(n), pa.int64()),
                  "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
                  "label": pa.array(labels, pa.int32())}),
        str(dd / "embeddings.parquet"),
    )
    from archivesspace_virgo_ray.pipelines.oracles.ann import (
        embedding_alignment_stats,
    )

    out = embedding_alignment_stats(str(dd)).set_index("label")
    u = vecs.astype(np.float64)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for lb in np.unique(labels):
        m = u[labels == lb]
        cos = m @ m.T
        iu = np.triu_indices(len(m), 1)
        assert abs(out.loc[lb, "mean_intra_cos"] - cos[iu].mean()) < 1e-6
        assert out.loc[lb, "n"] == len(m)


def test_cheapest_lineitem_argmin(ray_session, sf_dir):
    import duckdb

    from archivesspace_virgo_ray.pipelines.oracles.tpch import (
        cheapest_lineitem_per_order,
    )

    out = cheapest_lineitem_per_order(sf_dir)
    con = duckdb.connect()
    want = con.execute(f"""
        SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
               l_extendedprice
        FROM (SELECT *, row_number() OVER (PARTITION BY l_orderkey
              ORDER BY l_extendedprice, l_linenumber) rn
              FROM '{sf_dir}/lineitem.parquet') WHERE rn = 1
        ORDER BY l_orderkey""").df()
    pd.testing.assert_frame_equal(out, want)


def test_orders_histogram_includes_zero_bucket(ray_session, tmp_path):
    d = tmp_path / "q13"
    d.mkdir(parents=True)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_name": pa.array(["a", "b", "c", "d"]),
        "c_nationkey": pa.array([0] * 4, pa.int32()),
        "c_acctbal": pa.array([0.0] * 4),
        "c_mktsegment": pa.array(["x"] * 4),
    }), str(d / "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 11, 12], pa.int64()),
        "o_custkey": pa.array([1, 1, 2], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0] * 3),
        "o_orderdate": pa.array([pd.Timestamp("2026-01-01")] * 3,
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["1"] * 3),
    }), str(d / "orders.parquet"))
    from archivesspace_virgo_ray.pipelines.oracles.tpch import (
        orders_per_customer_histogram,
    )

    out = orders_per_customer_histogram(str(d)).set_index("n_orders")
    assert out.loc[0, "n_customers"] == 2  # custkeys 3,4
    assert out.loc[1, "n_customers"] == 1  # custkey 2
    assert out.loc[2, "n_customers"] == 1  # custkey 1


def test_doc_novelty_keyed_fallback_matches(ray_session, tmp_path):
    import ray.data

    from archivesspace_virgo_ray.pipelines.curation import doc_novelty

    rows = [
        {"doc_id": i, "text": " ".join(f"w{i}_{j}" for j in range(12))}
        for i in range(6)
    ]
    rows[3]["text"] = rows[0]["text"]  # full dup -> all shingles dup
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(3)
    out = doc_novelty(ds, k=5).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    assert out.loc[0, "novel_frac"] == 0.0 and out.loc[3, "novel_frac"] == 0.0
    assert (out.loc[[1, 2, 4, 5], "novel_frac"] == 1.0).all()
    forced = doc_novelty(ds, k=5, expected_shingles=10**9).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(out, forced)


def test_time_to_first_purchase_and_antijoin(ray_session, tmp_path):
    d = tmp_path / "ttf"
    d.mkdir(parents=True)
    ts = pd.to_datetime([
        "2026-01-01 00:00",  # u1 view
        "2026-01-01 01:30",  # u1 purchase (value 300: big)
        "2026-01-01 02:00",  # u2 view
        "2026-01-01 02:10",  # u2 purchase (value 10: small)
        "2026-01-02 00:00",  # u3 purchase only (big)
    ])
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "event_type": pa.array(["view", "purchase", "view", "purchase",
                                "purchase"]),
        "value": pa.array([0.0, 300.0, 0.0, 10.0, 400.0]),
        "props": pa.array(["{}"] * 5),
    }), str(d / "events.parquet"))
    from archivesspace_virgo_ray.pipelines.oracles.events import (
        time_to_first_purchase,
        viewers_never_purchased,
    )

    ttf = time_to_first_purchase(str(d)).set_index("user_id")
    assert list(ttf.index) == [1, 2]  # u3 has no view
    assert ttf.loc[1, "delta_s"] == 5400.0
    assert ttf.loc[2, "delta_s"] == 600.0
    anti = viewers_never_purchased(str(d))
    assert list(anti["user_id"]) == [2]  # u2's only purchase is small


