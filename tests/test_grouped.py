"""Field collapsing (grouped top-k): brute-force parity, group boundaries,
empty queries."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import LocalSearcher, get_pool

DOCS = [
    (1, "apple banana apple", "a"),
    (2, "apple cherry", "a"),
    (3, "apple apple apple", "b"),
    (4, "banana cherry", "b"),
    (5, "apple banana", "c"),
    (6, "cherry cherry", "c"),
]


@pytest.fixture(scope="module")
def grp_idx(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("grp")
    path = str(root / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([d for d, _, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t, _ in DOCS], pa.string()),
            "grp": pa.array([g for _, _, g in DOCS], pa.string()),
        }),
        path,
    )
    idx = str(root / "idx")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(
        path, idx,
        BuildConfig(n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
                    meta_cols=("grp",)),
        resume=False,
    )
    return idx


def _query_table(text, k):
    return pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array([text], pa.string()),
        "k": pa.array([k], pa.int32()),
    })


def _scored(idx, text, not_text=None, min_match=0):
    """Brute-force ranking: every match, minus NOT matches and docs with
    fewer than ``min_match`` distinct query terms."""
    terms = set(text.split())
    n_hit = {d: len(terms & set(t.split())) for d, t, _ in DOCS}
    return [(d, s) for d, s in LocalSearcher(idx).search(text, 100,
                                                         not_text=not_text)
            if n_hit[d] >= min_match]


def _brute(idx, text, n, not_text=None, min_match=0):
    by_grp = {g for _, _, g in DOCS}
    meta = {d: g for d, _, g in DOCS}
    scored = _scored(idx, text, not_text, min_match)
    out = {}
    for g in sorted(by_grp):
        rows = [(d, s) for d, s in scored if meta[d] == g][:n]
        if rows:
            out[g] = rows
    return out


def test_grouped_matches_brute_force(grp_idx):
    got = get_pool(grp_idx).grouped_topk(_query_table("apple banana", 2), "grp")
    want = _brute(grp_idx, "apple banana", 2)
    for g, rows in want.items():
        sub = got[got["grp"] == g]
        assert list(sub["doc_id"]) == [d for d, _ in rows]
        assert np.allclose(sub["score"], [s for _, s in rows])
        assert list(sub["grp_rank"]) == list(range(1, len(rows) + 1))


def test_grouped_n1_collapse(grp_idx):
    got = get_pool(grp_idx).grouped_topk(_query_table("apple", 1), "grp")
    # exactly one (best) doc per group that has any match
    assert got.groupby("grp").size().max() == 1
    want = _brute(grp_idx, "apple", 1)
    assert set(got["grp"]) == set(want)


def test_grouped_unmatched_query_empty(grp_idx):
    got = get_pool(grp_idx).grouped_topk(_query_table("zzznope", 3), "grp")
    assert len(got) == 0
    assert list(got.columns) == ["query_id", "grp", "grp_rank", "doc_id", "score"]


def test_boosted_topk_identity_weights_match_plain(grp_idx):
    pool = get_pool(grp_idx)
    q = _query_table("apple banana", 10)
    plain = pool.topk(q).to_pandas()
    boosted = pool.boosted_topk(q, "grp", {}, 1.0)
    a = plain.sort_values("doc_id", ignore_index=True)
    b = boosted.sort_values("doc_id", ignore_index=True)
    assert list(a["doc_id"]) == list(b["doc_id"])
    np.testing.assert_allclose(
        a["score"].to_numpy(), b["boosted"].to_numpy(), rtol=0, atol=0
    )


def test_boosted_topk_reorders_by_weight(grp_idx):
    pool = get_pool(grp_idx)
    q = _query_table("apple", 10)
    base = pool.topk(q).to_pandas()
    heavy = pool.boosted_topk(q, "grp", {"c": 1000.0}, 1.0)
    top = heavy.sort_values(["boosted", "doc_id"],
                            ascending=[False, True]).iloc[0]
    meta = {d: g for d, _, g in DOCS}
    assert meta[int(top["doc_id"])] == "c"
    # raw scores survive unchanged next to the boost
    merged = heavy.merge(base, on="doc_id", suffixes=("", "_base"))
    np.testing.assert_allclose(merged["score"], merged["score_base"],
                               rtol=0, atol=0)


def test_boosted_topk_can_promote_below_topk_docs(grp_idx):
    pool = get_pool(grp_idx)
    # k=1: plain winner is doc 3 ("apple apple apple"); boosting its group
    # DOWN promotes a different group's doc without rescoring
    q = _query_table("apple", 1)
    plain = pool.topk(q).to_pandas()
    assert plain["doc_id"].tolist() == [3]
    flipped = pool.boosted_topk(q, "grp", {"b": 0.001}, 1.0)
    assert flipped["doc_id"].tolist() != [3]


SIDE = [("apple banana", 2, "cherry", None), ("apple banana", 3, None, 2),
        ("apple cherry", 1, "banana", 2)]


def _side_table():
    return pa.table({
        "query_id": pa.array(range(len(SIDE)), pa.int64()),
        "text": pa.array([t for t, _, _, _ in SIDE], pa.string()),
        "k": pa.array([k for _, k, _, _ in SIDE], pa.int32()),
        "not_text": pa.array([n for _, _, n, _ in SIDE], pa.string()),
        "min_match": pa.array([m for _, _, _, m in SIDE], pa.int32()),
    })


def test_grouped_and_boosted_honour_not_and_min_match(grp_idx):
    pool = get_pool(grp_idx)
    grouped = pool.grouped_topk(_side_table(), "grp")
    w = {"a": 0.5, "c": 3.0}
    boosted = pool.boosted_topk(_side_table(), "grp", w, 1.0)
    meta = {d: g for d, _, g in DOCS}
    for qid, (text, k, not_text, mm) in enumerate(SIDE):
        want = _brute(grp_idx, text, k, not_text, mm or 0)
        mine = grouped[grouped["query_id"] == qid]
        assert sorted(set(mine["grp"])) == sorted(want), qid
        for g, rows in want.items():
            sub = mine[mine["grp"] == g]
            assert list(sub["doc_id"]) == [d for d, _ in rows], (qid, g)
            assert list(sub["score"]) == [s for _, s in rows], (qid, g)
        scored = _scored(grp_idx, text, not_text, mm or 0)
        want_b = sorted(((-s * w.get(meta[d], 1.0), d, s) for d, s in scored))[:k]
        mine_b = boosted[boosted["query_id"] == qid]
        assert list(mine_b["doc_id"]) == [d for _, d, _ in want_b], qid
        assert list(mine_b["score"]) == [s for _, _, s in want_b], qid
        assert list(mine_b["boosted"]) == [-b for b, _, _ in want_b], qid
        plain = _brute(grp_idx, text, k)
        assert want != plain, qid  # each case's side channel bites


def test_grouped_and_boosted_reject_cursor(grp_idx):
    pool = get_pool(grp_idx)
    q = _query_table("apple", 2).append_column(
        "cursor_score", pa.array([1.0])).append_column(
        "cursor_doc", pa.array([3], pa.int64()))
    with pytest.raises(ValueError, match="cursor"):
        pool.grouped_topk(q, "grp")
    with pytest.raises(ValueError, match="cursor"):
        pool.boosted_topk(q, "grp", {"a": 2.0})
