"""End-to-end: build index on Ray, verify rank-identical BM25 vs oracle,
partitioning invariance, sha256 per-row invariant, and checkpoint/resume."""

import glob
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import (
    NEEDLE_FMT,
    generate_corpus,
    generate_queries,
    write_corpus,
)
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key, sha256_hex
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import LocalSearcher, bm25_topk
from archivesspace_virgo_ray.index.segments import read_stats
from archivesspace_virgo_ray.oracle import OracleIndex

N_DOCS = 400


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(str(d), N_DOCS, seed=42, rows_per_file=100)
    return str(d)


@pytest.fixture(scope="module")
def built_index(corpus_dir, tmp_path_factory, ray_session):
    idx = str(tmp_path_factory.mktemp("index") / "idx")
    stats = build_index(
        corpus_dir, idx, BuildConfig(n_shards=2, n_buckets=4), resume=False
    )
    return idx, stats


@pytest.fixture(scope="module")
def oracle(corpus_dir):
    t = pq.read_table(sorted(glob.glob(corpus_dir + "/*.parquet"))[0])
    import pyarrow as pa

    parts = [pq.read_table(p) for p in sorted(glob.glob(corpus_dir + "/*.parquet"))]
    t = pa.concat_tables(parts)
    ids = doc_id_from_key(
        t["repo"].to_pylist(), t["path"].to_pylist(), t["commit"].to_pylist()
    )
    return OracleIndex(ids.tolist(), t["content"].to_pylist()), t, ids


def test_build_stats(built_index, oracle):
    _, stats = built_index
    o, _, _ = oracle
    assert stats["n_docs"] == N_DOCS == o.n_docs
    assert stats["total_len"] == o.total_len
    assert stats["avgdl"] == pytest.approx(o.avgdl)


def test_sha256_invariant(built_index, oracle):
    idx, _ = built_index
    _, t, ids = oracle
    docs = pq.read_table(os.path.join(idx, "_docs"))
    got = dict(zip(docs["doc_id"].to_pylist(), docs["sha256"].to_pylist()))
    want = sha256_hex(t["content"].to_pylist())
    assert len(got) == N_DOCS
    for i, doc_id in enumerate(ids.tolist()):
        assert got[int(doc_id)] == want[i]


def test_rank_identical_vs_oracle(built_index, oracle):
    idx, _ = built_index
    o, _, _ = oracle
    searcher = LocalSearcher(idx)
    queries = generate_queries()
    for qid, text, k in zip(
        queries["query_id"].to_pylist(),
        queries["text"].to_pylist(),
        queries["k"].to_pylist(),
    ):
        expect = o.score_query(text, k)
        got = searcher.search(text, k)
        assert [d for d, _ in got] == [d for d, _ in expect], f"docs differ for q{qid}: {text!r}"
        for (gd, gs), (ed, es) in zip(got, expect):
            assert gs == es, f"score not bit-identical q{qid} {text!r} doc {gd}: {gs} != {es}"


def test_needle_query(built_index, oracle):
    idx, _ = built_index
    _, _, ids = oracle
    searcher = LocalSearcher(idx)
    got = searcher.search(NEEDLE_FMT.format(row=17), 10)
    assert len(got) == 1 and got[0][0] == int(ids[17])


def test_distributed_topk_matches_local(built_index, oracle, ray_session):
    idx, _ = built_index
    o, _, _ = oracle
    queries = generate_queries()
    out = bm25_topk(idx, queries)
    df = out.to_pandas()
    for qid, text, k in zip(
        queries["query_id"].to_pylist(),
        queries["text"].to_pylist(),
        queries["k"].to_pylist(),
    ):
        expect = o.score_query(text, k)
        sub = df[df["query_id"] == qid].sort_values("rank")
        assert sub["doc_id"].tolist() == [d for d, _ in expect], f"q{qid}: {text!r}"
        assert sub["score"].tolist() == [s for _, s in expect], f"q{qid}: {text!r}"


def test_partitioning_invariance(corpus_dir, tmp_path_factory, oracle, ray_session):
    """Different shard/bucket counts must not change any result (doc ids are
    content-derived, scores global-stat-derived)."""
    o, _, _ = oracle
    idx2 = str(tmp_path_factory.mktemp("index_alt") / "idx")
    build_index(corpus_dir, idx2, BuildConfig(n_shards=5, n_buckets=3), resume=False)
    searcher = LocalSearcher(idx2)
    for text in ["the", "def return", "parse_0 index_1", NEEDLE_FMT.format(row=0)]:
        expect = o.score_query(text, 10)
        got = searcher.search(text, 10)
        assert [d for d, _ in got] == [d for d, _ in expect]
        assert [s for _, s in got] == [s for _, s in expect]


def test_resume_skips_completed_and_is_byte_identical(
    corpus_dir, tmp_path_factory, ray_session
):
    base = tmp_path_factory.mktemp("resume")
    idx_a = str(base / "full")
    cfg = BuildConfig(n_shards=2, n_buckets=4)
    build_index(corpus_dir, idx_a, cfg, resume=False)

    # simulate a crashed run: copy, then delete some segments + stats
    idx_b = str(base / "partial")
    shutil.copytree(idx_a, idx_b)
    segs = sorted(os.listdir(os.path.join(idx_b, "segments")))
    for name in segs[: len(segs) // 2]:
        shutil.rmtree(os.path.join(idx_b, "segments", name))
    shutil.rmtree(os.path.join(idx_b, "_global"))

    stats = build_index(corpus_dir, idx_b, BuildConfig(n_shards=2, n_buckets=4))
    assert stats["n_segments_skipped"] == len(segs) - len(segs) // 2
    assert stats["n_segments_written"] == len(segs) // 2

    for name in segs:
        for f in ("terms.parquet", "blocks.parquet", "docs.bin", "postings.bin"):
            a = open(os.path.join(idx_a, "segments", name, f), "rb").read()
            b = open(os.path.join(idx_b, "segments", name, f), "rb").read()
            assert a == b, f"{name}/{f} differs after resume"
    sa, sb = read_stats(idx_a), read_stats(idx_b)
    for key in ("n_docs", "total_len", "avgdl", "n_postings"):
        assert sa[key] == sb[key]


def test_testdata_documents_build(ray_session, sf_dir, tmp_path_factory):
    """Engine also indexes the driver's documents table (doc_id provided)."""
    idx = str(tmp_path_factory.mktemp("docidx") / "idx")
    cfg = BuildConfig(
        n_shards=2,
        n_buckets=4,
        text_col="text",
        id_col="doc_id",
        meta_cols=("lang", "source"),
    )
    stats = build_index(os.path.join(sf_dir, "documents.parquet"), idx, cfg, resume=False)
    assert stats["n_docs"] == 500
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    o = OracleIndex(t["doc_id"].to_pylist(), t["text"].to_pylist())
    searcher = LocalSearcher(idx)
    for text in ["the data", "model training", "xyzzy_nonexistent"]:
        expect = o.score_query(text, 10)
        got = searcher.search(text, 10)
        assert [d for d, _ in got] == [d for d, _ in expect]
        assert [s for _, s in got] == [s for _, s in expect]


def test_fresh_build_wipes_stale_index_dir(tmp_path, ray_session):
    """resume=False on a dirty target dir must not leave stale segments
    (an older corpus or different shard/bucket config) in query results."""
    import pyarrow as pa

    old = tmp_path / "old.parquet"
    new = tmp_path / "new.parquet"
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["stale needle words", "stale filler"],
                                   pa.string())}),
        str(old),
    )
    pq.write_table(
        pa.table({"doc_id": pa.array([10, 11], pa.int64()),
                  "text": pa.array(["fresh words here", "fresh filler"],
                                   pa.string())}),
        str(new),
    )
    idx = str(tmp_path / "idx")
    cfg_a = BuildConfig(n_shards=3, n_buckets=3, text_col="text",
                        id_col="doc_id", meta_cols=())
    build_index(str(old), idx, cfg_a, resume=False)
    # rebuild with a DIFFERENT config over a different corpus, same dir
    cfg_b = BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                        id_col="doc_id", meta_cols=())
    stats = build_index(str(new), idx, cfg_b, resume=False)
    assert stats["n_docs"] == 2
    s = LocalSearcher(idx)
    assert s.search("stale", 10) == []          # old corpus fully gone
    assert {d for d, _ in s.search("fresh", 10)} == {10, 11}


def test_resume_rebuilds_doc_table_when_meta_widens(ray_session, tmp_path_factory):
    """A resumed build whose config adds meta columns must rewrite the doc
    metadata table (segments can be reused; the old docs schema cannot)."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    root = tmp_path_factory.mktemp("widen")
    docs_path = str(root / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["alpha beta", "beta gamma", "gamma delta"]),
            "lang": pa.array(["en", "en", "de"]),
            "n_chars": pa.array([10, 10, 11], pa.int64()),
        }),
        docs_path,
    )
    idx = str(root / "idx")
    narrow = BuildConfig(n_shards=2, n_buckets=4, text_col="text",
                         id_col="doc_id", meta_cols=("lang",))
    build_index(docs_path, idx, narrow, resume=False)
    wide = BuildConfig(n_shards=2, n_buckets=4, text_col="text",
                       id_col="doc_id", meta_cols=("lang", "n_chars"))
    stats = build_index(docs_path, idx, wide, resume=True)
    assert stats["n_segments_skipped"] > 0  # segments reused
    # the widened column is filterable now
    out = bm25_topk(
        idx,
        pa.table({
            "query_id": pa.array([0], pa.int64()),
            "text": pa.array(["gamma"]),
            "k": pa.array([10], pa.int32()),
        }),
        where=(pads.field("n_chars") >= 11),
    ).to_pandas()
    assert set(out["doc_id"]) == {3}


def test_fast_resume_stamp_and_invalidation(ray_session, tmp_path_factory):
    """A finished build stamps n_groups; an untouched resume short-circuits
    the triples pass, and losing a segment voids the stamp and heals."""
    import time

    import pyarrow as pa

    root = tmp_path_factory.mktemp("fastresume")
    docs_path = str(root / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(list(range(200)), pa.int64()),
            "text": pa.array([f"alpha beta gamma tok{i % 37}" for i in range(200)]),
        }),
        docs_path,
    )
    idx = str(root / "idx")
    cfg = BuildConfig(n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
                      meta_cols=())
    s1 = build_index(docs_path, idx, cfg, resume=False)
    assert s1.get("n_groups", 0) > 0
    s2 = build_index(docs_path, idx, cfg, resume=True)
    assert s2["n_segments_written"] == 0
    assert s2["n_postings"] == s1["n_postings"]
    # lose one segment -> stamp count mismatch -> that group rebuilds
    seg_dirs = sorted(glob.glob(os.path.join(idx, "segments", "s*_b*")))
    shutil.rmtree(seg_dirs[0])
    s3 = build_index(docs_path, idx, cfg, resume=True)
    assert s3["n_segments_written"] >= 1
    assert s3["n_postings"] == s1["n_postings"]
    # and queries still answer identically
    q = LocalSearcher(idx).search("alpha beta", 5)
    assert len(q) == 5
