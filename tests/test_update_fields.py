"""Atomic partial (metadata-only) updates: visibility, score stability,
pool invalidation, error cases."""

import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import get_pool
from archivesspace_virgo_ray.index.update import update_fields

DOCS = [
    (1, "apple banana apple", "a"),
    (2, "apple cherry", "a"),
    (3, "apple apple apple", "b"),
    (4, "banana cherry", "b"),
]


@pytest.fixture()
def upd_idx(ray_session, tmp_path):
    path = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([d for d, _, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t, _ in DOCS], pa.string()),
            "grp": pa.array([g for _, _, g in DOCS], pa.string()),
        }),
        path,
    )
    idx = str(tmp_path / "idx")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(
        path, idx,
        BuildConfig(n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
                    meta_cols=("grp",)),
        resume=False,
    )
    return idx


def _q(text, k=10):
    return pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array([text], pa.string()),
        "k": pa.array([k], pa.int32()),
    })


def test_update_fields_changes_facets_not_scores(upd_idx):
    pool = get_pool(upd_idx)
    before = pool.topk(_q("apple banana")).to_pandas()
    fc_before = pool.facet_counts("grp", text="apple", mode="or")
    assert dict(zip(fc_before["grp"], fc_before["n_docs"])) == {"a": 2, "b": 1}

    r = update_fields(upd_idx, pd.DataFrame({
        "doc_id": np.array([1], dtype=np.int64), "grp": ["b"]
    }))
    assert r["n_updated"] == 1

    pool2 = get_pool(upd_idx)
    # staleness fingerprint caught the meta gen -> in-place refresh
    assert pool2 is pool
    fc_after = pool2.facet_counts("grp", text="apple", mode="or")
    assert dict(zip(fc_after["grp"], fc_after["n_docs"])) == {"a": 1, "b": 2}
    after = pool2.topk(_q("apple banana")).to_pandas()
    pd.testing.assert_frame_equal(before, after)  # scores bit-identical


def test_update_fields_affects_grouping_and_boost(upd_idx):
    update_fields(upd_idx, pd.DataFrame({
        "doc_id": np.array([3], dtype=np.int64), "grp": ["z"]
    }))
    pool = get_pool(upd_idx)
    g = pool.grouped_topk(_q("apple"), "grp")
    assert "z" in set(g["grp"])
    boosted = pool.boosted_topk(_q("apple"), "grp", {"z": 1000.0}, 1.0)
    assert int(boosted.iloc[0]["doc_id"]) == 3


def test_update_fields_rejects_bad_input(upd_idx):
    with pytest.raises(ValueError, match="not updatable"):
        update_fields(upd_idx, pd.DataFrame({
            "doc_id": np.array([1], dtype=np.int64), "sha256": ["x"]
        }))
    with pytest.raises(ValueError, match="not live"):
        update_fields(upd_idx, pd.DataFrame({
            "doc_id": np.array([999], dtype=np.int64), "grp": ["a"]
        }))
    with pytest.raises(ValueError, match="no columns"):
        update_fields(upd_idx, pd.DataFrame({
            "doc_id": np.array([1], dtype=np.int64)
        }))


def test_update_fields_twice_latest_wins(upd_idx):
    update_fields(upd_idx, pd.DataFrame({
        "doc_id": np.array([2], dtype=np.int64), "grp": ["x"]
    }))
    update_fields(upd_idx, pd.DataFrame({
        "doc_id": np.array([2], dtype=np.int64), "grp": ["y"]
    }))
    pool = get_pool(upd_idx)
    fc = pool.facet_counts("grp", text="cherry", mode="or")
    m = dict(zip(fc["grp"], fc["n_docs"]))
    assert m.get("y") == 1 and "x" not in m


def _added(tmp_path, rows, name):
    path = str(tmp_path / name)
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _, _ in rows], pa.int64()),
        "text": pa.array([t for _, t, _ in rows], pa.string()),
        "grp": pa.array([g for _, _, g in rows], pa.string()),
    }), path)
    return path


def _assert_matches_oracle(idx, live):
    """``n_docs`` and BM25 answers equal the oracle's over the live docs."""
    from archivesspace_virgo_ray.index.query import LocalSearcher
    from archivesspace_virgo_ray.index.segments import read_stats
    from archivesspace_virgo_ray.oracle import OracleIndex

    oracle = OracleIndex(list(live), list(live.values()))
    assert read_stats(idx)["n_docs"] == len(live)
    ls = LocalSearcher(idx)
    for q in ("apple", "banana cherry", "apple date", "elder fig apple"):
        assert ls.search(q, 10) == oracle.score_query(q, 10), q


def test_stats_after_update_fields_then_add_match_oracle(upd_idx, tmp_path):
    """An update_fields row sits beside the row it updates: every later
    commit's stats (an add recounts) must not count it as a doc, or idf
    and avgdl drift from the live corpus's; fsck's ``marker_stats`` check
    recomputes the same identity from the forward table."""
    from archivesspace_virgo_ray.index.fsck import fsck_index
    from archivesspace_virgo_ray.index.reshard import reshard_index
    from archivesspace_virgo_ray.index.update import (
        add_documents,
        delete_documents,
        maintain,
    )

    def audit_ok(idx):
        audit = fsck_index(idx)
        assert audit["ok"], audit["issues"]

    cfg = BuildConfig(n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
                      meta_cols=("grp",))
    update_fields(upd_idx, pd.DataFrame({
        "doc_id": np.array([1, 2], dtype=np.int64), "grp": ["b", "c"]}))
    update_fields(upd_idx, pd.DataFrame({
        "doc_id": np.array([2], dtype=np.int64), "grp": ["d"]}))
    new = [(5, "date elder apple", "a"), (6, "fig fig apple date", "b")]
    add_documents(_added(tmp_path, new, "add.parquet"), upd_idx, cfg)
    live = {d: t for d, t, _ in DOCS + new}
    _assert_matches_oracle(upd_idx, live)
    audit_ok(upd_idx)
    _assert_matches_oracle(upd_idx, live)

    # a delete of an updated doc (stats keep it until a merge), the full
    # merge and the vacuum that drops its rows, then a reshard of the
    # vacuumed index
    delete_documents(upd_idx, [2])
    del live[2]
    maintain(upd_idx, dead_ratio=0.0)
    _assert_matches_oracle(upd_idx, live)
    audit_ok(upd_idx)
    _assert_matches_oracle(upd_idx, live)
    dst = str(tmp_path / "resharded")
    reshard_index(upd_idx, dst, 1, 2)
    _assert_matches_oracle(dst, live)
    audit_ok(dst)
    _assert_matches_oracle(dst, live)
