"""Distributed prefix scan, ordered row numbers, deterministic shuffle."""

import numpy as np
import pandas as pd
import ray.data


def test_prefix_sum_matches_numpy_and_is_partition_invariant(ray_session):
    from archivesspace_virgo_ray.state.scan import ordered_prefix_sum

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "k": rng.permutation(5000).astype(np.int64),
        "v": rng.integers(0, 100, 5000).astype(np.int64),
    })
    want = df.sort_values("k", ignore_index=True)
    want["prefix"] = np.concatenate(
        [[0], np.cumsum(want["v"].to_numpy())[:-1]]
    ).astype(np.int64)
    for parts in (1, 7, 32):
        got = (
            ordered_prefix_sum(
                ray.data.from_pandas(df).repartition(parts), "k", "v"
            )
            .to_pandas()
            .sort_values("k", ignore_index=True)
        )
        pd.testing.assert_frame_equal(
            got[["k", "v", "prefix"]], want, check_dtype=False
        )


def test_prefix_sum_skewed_and_tiny_blocks(ray_session):
    from archivesspace_virgo_ray.state.scan import ordered_prefix_sum

    # n < partitions -> some empty blocks must not break the offset table
    df = pd.DataFrame({"k": np.arange(3, dtype=np.int64),
                       "v": np.array([10, 0, 7], dtype=np.int64)})
    got = (
        ordered_prefix_sum(ray.data.from_pandas(df).repartition(8), "k", "v")
        .to_pandas().sort_values("k", ignore_index=True)
    )
    assert got["prefix"].tolist() == [0, 10, 10]


def test_ordered_row_number_matches_argsort(ray_session):
    from archivesspace_virgo_ray.state.scan import ordered_row_number

    keys = [f"k{(i * 37) % 100:03d}" for i in range(100)]  # unique, scrambled
    df = pd.DataFrame({"id": np.arange(100, dtype=np.int64), "key": keys})
    out = (
        ordered_row_number(ray.data.from_pandas(df).repartition(7), "key")
        .to_pandas().sort_values("id", ignore_index=True)
    )
    want = np.empty(100, dtype=np.int64)
    want[np.argsort(np.array(keys))] = np.arange(1, 101)
    assert out["pos"].tolist() == want.tolist()


def test_deterministic_shuffle_is_seeded_permutation(ray_session):
    import hashlib

    from archivesspace_virgo_ray.pipelines.curation import deterministic_shuffle

    ids = np.arange(50, dtype=np.int64)
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": ids})).repartition(5)
    out = (
        deterministic_shuffle(ds, seed="s7")
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    keys = [hashlib.md5(f"s7:{i}".encode()).hexdigest() for i in ids]
    want = np.empty(50, dtype=np.int64)
    want[np.argsort(np.array(keys))] = np.arange(1, 51)
    assert out["shuffle_pos"].tolist() == want.tolist()
    # a permutation: every position exactly once
    assert sorted(out["shuffle_pos"]) == list(range(1, 51))
    # rerun with the same seed is identical; a new seed permutes differently
    again = (
        deterministic_shuffle(ds, seed="s7")
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    assert again["shuffle_pos"].tolist() == out["shuffle_pos"].tolist()
    other = (
        deterministic_shuffle(ds, seed="s8")
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    assert other["shuffle_pos"].tolist() != out["shuffle_pos"].tolist()


def test_grouped_prefix_sum_matches_pandas_window(ray_session):
    from archivesspace_virgo_ray.state.scan import grouped_prefix_sum

    rng = np.random.default_rng(3)
    n = 400
    df = pd.DataFrame({
        "part": rng.integers(0, 9, size=n).astype(np.int64),
        "o1": rng.permutation(n).astype(np.int64),  # unique within part
        "val": rng.integers(-50, 100, size=n).astype(np.int64),
    })
    out = (
        grouped_prefix_sum(
            ray.data.from_pandas(df).repartition(7), "part", ["o1"], "val",
        )
        .to_pandas().sort_values(["part", "o1"], ignore_index=True)
    )
    want = df.sort_values(["part", "o1"], ignore_index=True)
    want["running"] = want.groupby("part")["val"].cumsum()
    assert out["running"].tolist() == want["running"].tolist()
    # a partition spanning many blocks: single hot part
    df2 = pd.DataFrame({
        "part": np.zeros(300, np.int64),
        "o1": np.arange(300, dtype=np.int64),
        "val": np.ones(300, np.int64),
    })
    out2 = (
        grouped_prefix_sum(
            ray.data.from_pandas(df2).repartition(11), "part", ["o1"], "val",
        )
        .to_pandas().sort_values("o1", ignore_index=True)
    )
    assert out2["running"].tolist() == list(range(1, 301))
