"""Round-4 continuation: market-basket co-purchase pair mining and JSON
props extraction."""

import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.tpch import copurchase_top_pairs


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_copurchase_pairs_counted_once_per_order(ray_session, tmp_path):
    d = tmp_path / "sf"
    # order 1: parts {1, 2, 3} (part 2 appears twice -> still one pair
    # contribution); order 2: parts {1, 2}; order 3: part {5} alone
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([1, 1, 1, 1, 2, 2, 3], pa.int64()),
        "l_partkey": pa.array([1, 2, 2, 3, 1, 2, 5], pa.int64()),
    }))
    out = copurchase_top_pairs(str(d))
    top = out.iloc[0]
    assert (top["part_a"], top["part_b"], top["n_orders"]) == (1, 2, 2)
    pairs = set(zip(out["part_a"], out["part_b"]))
    assert pairs == {(1, 2), (1, 3), (2, 3)}


def test_props_k_stats_json_extraction(ray_session, tmp_path):
    import pandas as pd

    from archivesspace_virgo_ray.pipelines.oracles.events import (
        props_k_stats_by_type,
    )

    d = tmp_path / "sf"
    _write(d, "events", pa.table({
        "event_type": pa.array(["view", "view", "click", "click"],
                               pa.string()),
        # one malformed row must be dropped, negatives must parse
        "props": pa.array(['{"k": 10}', '{"k": -4}', '{"k": 7}', 'oops'],
                          pa.string()),
    }))
    out = props_k_stats_by_type(str(d)).set_index("event_type")
    assert out.loc["view", "n"] == 2
    assert out.loc["view", "avg_k"] == 3.0
    assert out.loc["view", "min_k"] == -4
    assert out.loc["click", "n"] == 1
    assert out.loc["click", "max_k"] == 7
