"""Facet/range-filtered BM25 (the Solr filter-query surface, S6/J8):
filtering restricts results without changing scores."""

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import LocalSearcher, filter_doc_ids


@pytest.fixture(scope="module")
def doc_index(tmp_path_factory, ray_session, sf_dir):
    idx = str(tmp_path_factory.mktemp("fidx") / "idx")
    build_index(
        os.path.join(sf_dir, "documents.parquet"),
        idx,
        BuildConfig(n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
                    meta_cols=("lang", "source")),
        resume=False,
    )
    return idx


def test_filtered_search_scores_unchanged(doc_index, sf_dir):
    s = LocalSearcher(doc_index)
    where = pads.field("lang") == "en"
    allowed = set(filter_doc_ids(doc_index, where).tolist())
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"])
    expect_allowed = {d for d, l in zip(t["doc_id"].to_pylist(), t["lang"].to_pylist()) if l == "en"}
    assert allowed == expect_allowed

    unfiltered = s.search("the data", 500)
    filtered = s.search("the data", 10, where=where)
    # oracle semantics: filter the unfiltered ranking, keep scores, take 10
    expect = [(d, sc) for d, sc in unfiltered if d in allowed][:10]
    assert filtered == expect
    assert all(d in allowed for d, _ in filtered)


def test_filter_zero_match(doc_index):
    s = LocalSearcher(doc_index)
    assert s.search("the", 10, where=(pads.field("lang") == "nope")) == []


def test_boolean_matching_and_facets(doc_index, sf_dir):
    import os

    import pyarrow.parquet as pq

    from archivesspace_virgo_ray.functions.tokenize import tokenize_text
    from archivesspace_virgo_ray.index.query import facet_counts, matching_doc_ids

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "lang"])
    docs = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    langs = dict(zip(t["doc_id"].to_pylist(), t["lang"].to_pylist()))

    q = "the data"
    want_and = sorted(
        d for d, txt in docs.items()
        if {"the", "data"} <= set(tokenize_text(txt))
    )
    want_or = sorted(
        d for d, txt in docs.items()
        if {"the", "data"} & set(tokenize_text(txt))
    )
    assert matching_doc_ids(doc_index, q, "and").tolist() == want_and
    assert matching_doc_ids(doc_index, q, "or").tolist() == want_or
    # an absent term empties a conjunction
    assert matching_doc_ids(doc_index, "the zz_missing_zz", "and").size == 0

    fc = facet_counts(doc_index, "lang", text=q, mode="and")
    from collections import Counter

    want_counts = Counter(langs[d] for d in want_and)
    assert dict(zip(fc["lang"], fc["n_docs"])) == dict(want_counts)


def test_explain_matches_ranked_score(doc_index):
    from archivesspace_virgo_ray.index.query import explain

    s = LocalSearcher(doc_index)
    q = "the data model"
    hits = s.search(q, 3)
    for doc_id, score in hits:
        ex = explain(doc_index, q, doc_id)
        assert ex["total"] == score  # bit-identical (same accumulation order)
        assert all(t["contribution"] > 0 for t in ex["terms"])
        assert sum(t["contribution"] for t in ex["terms"]) == ex["total"]
    # doc not containing the terms explains to zero
    absent = explain(doc_index, "zz_nothing_zz", hits[0][0])
    assert absent["total"] == 0.0 and absent["terms"] == []

def test_query_pool_reuse_and_invalidation(doc_index, sf_dir):
    """get_pool returns the same warm actors until the index changes on
    disk; an index mutation (tombstone write) REFRESHES the pool in place
    (Lucene reopen: same pool object, same warm actors, fresh state)."""
    import numpy as np
    import pyarrow as pa

    from archivesspace_virgo_ray.index.query import bm25_topk, get_pool
    from archivesspace_virgo_ray.index.update import delete_documents

    p1 = get_pool(doc_index)
    p2 = get_pool(doc_index)
    assert p1 is p2  # warm reuse, no actor rebuild

    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array(["the data"], pa.string()),
                  "k": pa.array([5], pa.int32())})
    before = bm25_topk(doc_index, q).to_pandas()
    assert len(before) == 5

    victim = int(before["doc_id"].iloc[0])
    markers = set(os.listdir(os.path.join(doc_index, "_global", "gens")))
    delete_documents(doc_index, [victim])
    p3 = get_pool(doc_index)
    assert p3 is p1  # index changed → same pool, refreshed in place
    after = bm25_topk(doc_index, q).to_pandas()
    assert victim not in set(after["doc_id"])
    # restore for the other module-scoped tests: drop the delete's marker
    # (it names its predecessor's term stats, so nothing else changed)
    (new,) = set(os.listdir(os.path.join(doc_index, "_global", "gens"))) - markers
    os.remove(os.path.join(doc_index, "_global", "gens", new))
    assert victim in set(bm25_topk(doc_index, q).to_pandas()["doc_id"])


def test_distributed_conjunctive_and_filtered_topk(doc_index):
    """bm25_topk(require_all / where) through the actor pool matches the
    in-process LocalSearcher result exactly."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    from archivesspace_virgo_ray.index.query import bm25_topk

    s = LocalSearcher(doc_index)
    q = pa.table({"query_id": pa.array([7], pa.int64()),
                  "text": pa.array(["the data stream"], pa.string()),
                  "k": pa.array([10], pa.int32())})
    conj = bm25_topk(doc_index, q, require_all=True).to_pandas()
    want = s.search("the data stream", 10, require_all=True)
    assert list(zip(conj["doc_id"], conj["score"])) == want

    filt = bm25_topk(doc_index, q, where=(pads.field("lang") == "en")).to_pandas()
    want_f = s.search("the data stream", 10, where=(pads.field("lang") == "en"))
    assert list(zip(filt["doc_id"], filt["score"])) == want_f


def test_facet_counts_null_group(tmp_path, ray_session):
    """Null facet values form a real group (SQL GROUP BY parity)."""
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.index.query import facet_counts

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["alpha beta", "alpha gamma", "beta gamma", "alpha beta gamma"],
        "lang": ["en", None, "fr", None],
    })
    idx = str(tmp_path / "nullidx")
    build_index(
        ray.data.from_pandas(df), idx,
        BuildConfig(n_shards=2, n_buckets=2, text_col="text", id_col="doc_id",
                    meta_cols=("lang",)),
        resume=False,
    )
    fc = facet_counts(idx, "lang", text="alpha", mode="and")
    got = {(None if pd.isna(k) else k): int(v) for k, v in zip(fc["lang"], fc["n_docs"])}
    assert got == {"en": 1, None: 2}


def test_all_docs_facet_counts_each_doc_under_its_current_fields(
        tmp_path, ray_session):
    """A whole-corpus facet counts each live doc once, under the value its
    latest version holds at the pinned marker: a doc whose ``lang``
    ``update_fields`` set counts under the new value only. The facet
    restricted to a query that every doc matches is the same table."""
    import pandas as pd

    from archivesspace_virgo_ray.index.query import facet_counts
    from archivesspace_virgo_ray.index.update import update_fields

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["common a", "common b", "common c", "common d"],
        "lang": ["en", "en", "fr", "fr"],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "base.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "base.parquet"), idx,
                BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                            id_col="doc_id", meta_cols=("lang",)),
                resume=False)
    update_fields(idx, pd.DataFrame({"doc_id": [1], "lang": ["de"]}))
    fc = facet_counts(idx, "lang")
    assert dict(zip(fc["lang"], fc["n_docs"].tolist())) == {
        "de": 1, "en": 1, "fr": 2}
    assert fc.equals(facet_counts(idx, "lang", text="common"))


def test_all_docs_facet_with_replace_and_delete(tmp_path, ray_session):
    """The streaming whole-corpus facet resolves replaced docs to their
    latest version and excludes deleted docs."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pqt

    from archivesspace_virgo_ray.index.build import BuildConfig, build_index
    from archivesspace_virgo_ray.index.query import facet_counts
    from archivesspace_virgo_ray.index.update import add_documents, delete_documents

    cfg = BuildConfig(n_shards=2, n_buckets=2, text_col="text", id_col="doc_id",
                      meta_cols=("lang",), batch_size=64)
    base = pa.Table.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2, 3, 4], "text": ["a b", "b c", "c d", "d e"],
         "lang": ["en", "en", "fr", "de"]}), preserve_index=False)
    repl = pa.Table.from_pandas(pd.DataFrame(
        {"doc_id": [2], "text": ["x y"], "lang": ["fr"]}), preserve_index=False)
    pqt.write_table(base, str(tmp_path / "base.parquet"))
    pqt.write_table(repl, str(tmp_path / "repl.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "base.parquet"), idx, cfg, resume=False)
    add_documents(str(tmp_path / "repl.parquet"), idx, cfg, on_conflict="replace")
    delete_documents(idx, [4])
    fc = facet_counts(idx, "lang")  # all-docs path
    assert dict(zip(fc["lang"], fc["n_docs"])) == {"en": 1, "fr": 2}


def test_all_docs_facet_keeps_null_group(tmp_path, ray_session):
    """Null facet values survive the streaming all-docs path's tree merge
    (regression: the merge levels used pandas' default dropna=True)."""
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.index.query import facet_counts

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["a b", "b c", "c d", "d e"],
        "lang": ["en", None, None, "fr"],
    })
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_pandas(df), idx,
        BuildConfig(n_shards=2, n_buckets=2, text_col="text", id_col="doc_id",
                    meta_cols=("lang",)),
        resume=False,
    )
    fc = facet_counts(idx, "lang")
    got = {(None if pd.isna(k) else k): int(v) for k, v in zip(fc["lang"], fc["n_docs"])}
    assert got == {"en": 1, "fr": 1, None: 2}


def test_cursor_page_equals_offset_page(doc_index):
    """search-after (cursorMark) page 2 must equal the offset-paged window
    of one big top-k, in the rounded (score desc, doc_id asc) order."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from archivesspace_virgo_ray.index.query import get_pool

    pool = get_pool(doc_index)
    text, rows = "the data model", 5
    big = pool.topk(pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array([text]),
        "k": pa.array([rows * 2 + 10], pa.int32()),
    })).to_pandas()
    big["r6"] = big["score"].round(6)
    big = big.sort_values(["r6", "doc_id"], ascending=[False, True],
                          kind="mergesort", ignore_index=True)
    assert len(big) >= rows * 2
    cur = big.iloc[rows - 1]
    after = pool.topk(pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array([text]),
        "k": pa.array([rows + 10], pa.int32()),
        "cursor_score": pa.array([float(cur["r6"])], pa.float64()),
        "cursor_doc": pa.array([int(cur["doc_id"])], pa.int64()),
    })).to_pandas()
    after["r6"] = after["score"].round(6)
    after = after.sort_values(["r6", "doc_id"], ascending=[False, True],
                              kind="mergesort", ignore_index=True).head(rows)
    want = big.iloc[rows: rows * 2].reset_index(drop=True)
    assert after["doc_id"].tolist() == want["doc_id"].tolist()
    assert np.allclose(after["score"].to_numpy(), want["score"].to_numpy())
    # nothing at-or-before the mark may appear
    assert ((after["r6"] < cur["r6"])
            | ((after["r6"] == cur["r6"]) & (after["doc_id"] > cur["doc_id"]))).all()


def test_cursor_null_column_means_no_cursor(doc_index):
    import pyarrow as pa

    from archivesspace_virgo_ray.index.query import get_pool

    pool = get_pool(doc_index)
    plain = pool.topk(pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array(["the data model"]),
        "k": pa.array([5], pa.int32()),
    })).to_pandas()
    nulled = pool.topk(pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array(["the data model"]),
        "k": pa.array([5], pa.int32()),
        "cursor_score": pa.array([None], pa.float64()),
        "cursor_doc": pa.array([None], pa.int64()),
    })).to_pandas()
    assert plain["doc_id"].tolist() == nulled["doc_id"].tolist()


def test_query_result_cache_hits_and_invalidation(tmp_path, ray_session):
    """Repeat queries hit the pool's result cache; any index mutation hands
    out a NEW pool (staleness fingerprint) with an empty cache."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from archivesspace_virgo_ray.index.build import BuildConfig, build_index
    from archivesspace_virgo_ray.index.query import get_pool
    from archivesspace_virgo_ray.index.update import add_documents

    corpus = tmp_path / "c"
    corpus.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["alpha beta", "beta gamma", "alpha gamma"]),
        }),
        str(corpus / "d.parquet"),
    )
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                      id_col="doc_id", meta_cols=())
    build_index(str(corpus), idx, cfg, resume=False)
    pool = get_pool(idx)
    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array(["alpha"]),
                  "k": pa.array([5], pa.int32())})
    a = pool.topk(q)
    b = pool.topk(q)
    assert pool.cache_hits == 1 and b.equals(a)
    # mutation -> fresh pool, empty cache, updated results
    delta = tmp_path / "delta"
    delta.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([9], pa.int64()),
                  "text": pa.array(["alpha alpha alpha"])}),
        str(delta / "d.parquet"),
    )
    add_documents(str(delta), idx, cfg)
    pool2 = get_pool(idx)  # refreshed in place: same pool, cache dropped
    assert pool2 is pool and pool2.cache_hits == 0
    c = pool2.topk(q)
    assert 9 in set(c["doc_id"].to_pylist())
