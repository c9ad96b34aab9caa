"""Prefix/wildcard queries: expansion cap, normalization, OR-equivalence,
and the expansion at the pool's pinned marker."""

import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.prefix import (
    _normalize_prefix,
    expand_prefix,
    expand_prefixes,
    prefix_topk,
)

DOCS = [
    (1, "stream stream stream sort"),
    (2, "sort sort scan"),
    (3, "scan scan scan scan"),
    (4, "stripe solo"),
    (5, "table join merge"),
    (6, "stream scan sort stripe solo salt"),
]


@pytest.fixture(scope="module")
def prefix_idx(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("prefix")
    docs_path = str(root / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t in DOCS], pa.string()),
        }),
        docs_path,
    )
    idx = str(root / "idx")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(
        docs_path, idx,
        BuildConfig(n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
                    meta_cols=()),
        resume=False,
    )
    return idx, docs_path


def test_normalize_prefix():
    assert _normalize_prefix("Sca*") == "sca"
    assert _normalize_prefix("  ") is None
    assert _normalize_prefix("*") is None
    assert _normalize_prefix("a_b-c") == "a_b"


def test_expand_orders_by_df_then_term(prefix_idx):
    idx, _ = prefix_idx
    # df: scan=3 docs, sort=3; solo/stream/stripe=2; salt=1
    got = expand_prefix(idx, "s", max_expansions=4)
    assert got == ["scan", "sort", "solo", "stream"]  # df desc, term asc
    assert expand_prefix(idx, "s", max_expansions=100) == [
        "scan", "sort", "solo", "stream", "stripe", "salt",
    ]


def test_expand_no_match_and_batch(prefix_idx):
    idx, _ = prefix_idx
    got = expand_prefixes(idx, ["zz", "st", "Table*"], max_expansions=10)
    assert got["zz"] == []
    assert got["st"] == ["stream", "stripe"]
    assert got["Table*"] == ["table"]


def test_prefix_topk_equals_expanded_or_query(prefix_idx):
    idx, _ = prefix_idx
    from archivesspace_virgo_ray.index.query import get_pool

    q = pa.table({
        "query_id": pa.array([7], pa.int64()),
        "prefix": pa.array(["st"], pa.string()),
        "k": pa.array([10], pa.int32()),
    })
    got = prefix_topk(idx, q).to_pandas()
    explicit = pa.table({
        "query_id": pa.array([7], pa.int64()),
        "text": pa.array(["stream stripe"], pa.string()),
        "k": pa.array([10], pa.int32()),
    })
    want = get_pool(idx).topk(explicit).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id", ignore_index=True),
        want.sort_values("doc_id", ignore_index=True),
    )


def test_prefix_topk_answers_each_row(prefix_idx):
    """Rows answer in table order, each on its own, also two rows that
    share a query id."""
    idx, _ = prefix_idx
    q = pa.table({
        "query_id": pa.array([9, 9, 2], pa.int64()),
        "prefix": pa.array(["st", "sa", "zz"], pa.string()),
        "k": pa.array([10, 10, 10], pa.int32()),
    })
    got = prefix_topk(idx, q)
    assert got["query_id"].to_pylist() == [9] * 4  # stream/stripe, salt
    assert got.equals(pa.concat_tables(
        [prefix_topk(idx, q.slice(i, 1)) for i in range(3)]))


def test_prefix_topk_no_match_is_empty(prefix_idx):
    idx, _ = prefix_idx
    q = pa.table({
        "query_id": pa.array([1], pa.int64()),
        "prefix": pa.array(["zz"], pa.string()),
        "k": pa.array([10], pa.int32()),
    })
    out = prefix_topk(idx, q)
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "rank", "doc_id", "score"]


def test_expansion_cap_changes_scores(prefix_idx):
    """With the cap at 1 only the top-df term scores — doc 4 (stripe solo,
    no scan) must drop out."""
    idx, _ = prefix_idx
    q = pa.table({
        "query_id": pa.array([1], pa.int64()),
        "prefix": pa.array(["s"], pa.string()),
        "k": pa.array([10], pa.int32()),
    })
    out = prefix_topk(idx, q, max_expansions=1).to_pandas()
    assert set(out.doc_id) == {2, 3, 6}  # docs containing 'scan' only


# --------------------------- regexp queries ---------------------------------


def test_regex_browse_fullmatch_anchoring(prefix_idx):
    """Patterns are anchored (Lucene RegexpQuery): 's.*' matches whole terms
    starting with s, 'ort' matches nothing even though terms contain it."""
    from archivesspace_virgo_ray.index.prefix import browse_terms_regex

    idx, _ = prefix_idx
    got = browse_terms_regex(idx, ["s.*", "ort", "s(can|ort)", "zzz+"], limit=10)
    by_pat = {p: g["term"].tolist() for p, g in got.groupby("pattern")}
    assert by_pat["s.*"] == ["scan", "sort", "solo", "stream", "stripe", "salt"]
    assert "ort" not in by_pat  # substring without wildcard: no full match
    assert by_pat["s(can|ort)"] == ["scan", "sort"]
    assert "zzz+" not in by_pat


def test_regex_topk_equals_expanded_or_query(prefix_idx):
    from archivesspace_virgo_ray.index.prefix import regex_topk
    from archivesspace_virgo_ray.index.query import get_pool

    idx, _ = prefix_idx
    q = pa.table({
        "query_id": pa.array([7, 8], pa.int64()),
        "pattern": pa.array(["st.*", "zzz+"], pa.string()),
        "k": pa.array([10, 10], pa.int32()),
    })
    got = regex_topk(idx, q).to_pandas()
    assert set(got["query_id"]) == {7}  # no-match pattern contributes nothing
    explicit = pa.table({
        "query_id": pa.array([7], pa.int64()),
        "text": pa.array(["stream stripe"], pa.string()),
        "k": pa.array([10], pa.int32()),
    })
    want = get_pool(idx).topk(explicit).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id", ignore_index=True),
        want.sort_values("doc_id", ignore_index=True),
    )


def test_regex_bad_pattern_raises_on_driver(prefix_idx):
    from archivesspace_virgo_ray.index.prefix import browse_terms_regex

    idx, _ = prefix_idx
    with pytest.raises(Exception):
        browse_terms_regex(idx, ["(unclosed"], limit=5)


def _race_index(tmp_path):
    """Docs 1 "stream sort", 2 "stream scan", 3 "table"; returns (index,
    write(name, rows) -> parquet path, cfg())."""
    def write(name, rows):
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(pa.table({
            "doc_id": pa.array([d for d, _ in rows], pa.int64()),
            "text": pa.array([t for _, t in rows], pa.string())}), path)
        return path

    cfg = lambda: BuildConfig(n_shards=2, n_buckets=4, text_col="text",  # noqa: E731
                              id_col="doc_id", meta_cols=())
    idx = str(tmp_path / "idx")
    build_index(write("base", [(1, "stream sort"), (2, "stream scan"),
                               (3, "table")]), idx, cfg(), resume=False)
    return idx, write, cfg


_ST = pa.table({
    "query_id": pa.array([1], pa.int64()),
    "prefix": pa.array(["st"], pa.string()),
    "k": pa.array([10], pa.int32()),
})


def test_expansion_reads_the_pools_pinned_marker(ray_session, tmp_path,
                                                 monkeypatch):
    """An add that lands between ``get_pool`` and the expansion must not
    change it: the pool scores at its pinned marker, so the expansion reads
    that marker's vocabulary, not the newer one where 'stx' outranks
    'stream'."""
    from archivesspace_virgo_ray.index import query
    from archivesspace_virgo_ray.index.update import add_documents

    idx, write, cfg = _race_index(tmp_path)
    delta = write("delta", [(4, "stx"), (5, "stx"), (6, "stx")])
    get_pool, added = query.get_pool, []

    def get_pool_then_add(index_dir):
        pool = get_pool(index_dir)
        if not added:
            added.append(add_documents(delta, idx, cfg()))
        return pool

    monkeypatch.setattr(query, "get_pool", get_pool_then_add)
    got = prefix_topk(idx, _ST, max_expansions=1)
    assert sorted(got["doc_id"].to_pylist()) == [1, 2]


def test_a_reaped_version_reruns_the_expansion_with_the_score(
        ray_session, tmp_path, monkeypatch):
    """Two adds after the pool expanded reap its term-stats version, so
    planning the expanded terms finds it gone: the expansion re-runs at the
    newest marker together with the score ('stx' now), never scoring the
    old expansion ('stream') at the new marker."""
    from archivesspace_virgo_ray.index import query
    from archivesspace_virgo_ray.index.update import add_documents

    idx, write, cfg = _race_index(tmp_path)
    deltas = [write("d1", [(4, "stx"), (5, "stx"), (6, "stx")]),
              write("d2", [(7, "table")])]
    get_pool = query.get_pool

    def get_pool_then_reap(index_dir):
        pool = get_pool(index_dir)
        pool.store.vocabulary()  # the expansion's read, at the pin
        while deltas:
            add_documents(deltas.pop(0), idx, cfg())
        return pool

    monkeypatch.setattr(query, "get_pool", get_pool_then_reap)
    got = prefix_topk(idx, _ST, max_expansions=1)
    assert sorted(got["doc_id"].to_pylist()) == [4, 5, 6]
