"""Pool reopen (Lucene IndexReader.reopen analog).

get_pool refreshes a live pool in place when the index changes: the same
pool object serves on, unchanged segment readers are reused (keyed by
build id + segment name), the result cache drops, and results equal a
cold pool / the union oracle.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import ShardScorer, get_pool
from archivesspace_virgo_ray.index.update import add_documents, merge_segments
from archivesspace_virgo_ray.oracle import OracleIndex

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)


def _query_tbl(text: str, k: int = 10) -> pa.Table:
    return pa.table({"query_id": pa.array([0], pa.int64()),
                     "text": pa.array([text]),
                     "k": pa.array([k], pa.int32())})


@pytest.fixture()
def built(tmp_path, ray_session):
    full = generate_corpus(260, seed=37)
    src = tmp_path / "corp"
    src.mkdir()
    pq.write_table(full.slice(0, 200), str(src / "base.parquet"))
    pq.write_table(full.slice(200, 60), str(src / "d1.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src / "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    return idx, str(src), full


def test_get_pool_refreshes_in_place_with_warm_actors(built):
    idx, src, full = built
    pool = get_pool(idx)
    before = pool.topk(_query_tbl("def return")).to_pandas()
    assert len(before)
    readers = {s: dict(sc.reader_cache)
               for s, sc in pool.worker.scorers.items()}

    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))
    pool2 = get_pool(idx)
    assert pool2 is pool, "index change should refresh, not rebuild"
    for s, sc in pool2.worker.scorers.items():
        assert all(sc.reader_cache[k] is r for k, r in readers[s].items()), \
            "unchanged segment readers must be reused across a refresh"
        assert len(sc.reader_cache) > len(readers[s]), "delta opened"

    got = pool2.topk(_query_tbl("def return")).to_pandas()
    ids = doc_id_from_key(full["repo"].to_pylist(), full["path"].to_pylist(),
                          full["commit"].to_pylist())
    oracle = OracleIndex(ids.tolist(), full["content"].to_pylist())
    expect = oracle.score_query("def return", 10)
    assert got["doc_id"].tolist() == [d for d, _ in expect]
    assert got["score"].tolist() == [s for _, s in expect]

    # merge rewrites the bases; the next get_pool refresh must pick the
    # rewritten segments (manifest mtime changed -> cache miss)
    merge_segments(idx, concurrency=2)
    pool3 = get_pool(idx)
    assert pool3 is pool
    got = pool3.topk(_query_tbl("def return")).to_pandas()
    assert got["doc_id"].tolist() == [d for d, _ in expect]


def test_federated_searcher_follows_member_refresh(tmp_path, ray_session):
    """A long-lived FederatedSearcher must reload its merged global stats
    when a member index changes — get_pool refreshes the member's pool IN
    PLACE, so scoring construction-time df/avgdl against refreshed
    postings would silently skew ranks."""
    from archivesspace_virgo_ray.index.federated import FederatedSearcher

    full = generate_corpus(300, seed=41)
    src = tmp_path / "corp"
    src.mkdir()
    pq.write_table(full.slice(0, 120), str(src / "a.parquet"))
    pq.write_table(full.slice(120, 120), str(src / "b.parquet"))
    pq.write_table(full.slice(240, 60), str(src / "da.parquet"))
    a, b, comb = (str(tmp_path / n) for n in ("a", "b", "comb"))
    build_index(str(src / "a.parquet"), a, BuildConfig(**CFG), resume=False)
    build_index(str(src / "b.parquet"), b, BuildConfig(**CFG), resume=False)

    fed = FederatedSearcher([a, b])
    fed.topk(_query_tbl("def return"))  # warm, snapshot taken

    # mutate member a AFTER the searcher was constructed
    add_documents(os.path.join(str(src), "da.parquet"), a,
                  BuildConfig(**CFG))
    get_pool(a)  # an unrelated caller refreshes the member pool in place

    got = fed.topk(_query_tbl("def return")).to_pandas()
    ids = doc_id_from_key(full["repo"].to_pylist(), full["path"].to_pylist(),
                          full["commit"].to_pylist())
    oracle = OracleIndex(ids.tolist(), full["content"].to_pylist())
    expect = oracle.score_query("def return", 10)
    assert got["doc_id"].tolist() == [d for d, _ in expect]
    assert got["score"].tolist() == [s for _, s in expect]


def test_scorer_reader_cache_reuses_unchanged_segments(built):
    idx, src, _full = built
    sc1 = ShardScorer(idx, 0)
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))
    sc2 = ShardScorer(idx, 0, reader_cache=sc1.reader_cache)
    # base readers are identical objects; the new delta generation's are not
    shared = sum(1 for k, r in sc2.reader_cache.items()
                 if sc1.reader_cache.get(k) is r)
    assert shared == len(sc1.reader_cache), "all base readers reused"
    assert len(sc2.reader_cache) > len(sc1.reader_cache), "delta opened"

    merge_segments(idx, concurrency=2)
    sc3 = ShardScorer(idx, 0, reader_cache=sc2.reader_cache)
    shared = sum(1 for k, r in sc3.reader_cache.items()
                 if sc2.reader_cache.get(k) is r)
    assert shared == 0, "merged pairs must NOT reuse stale readers"


def test_scorer_reader_cache_misses_after_a_rebuild_in_place(built):
    """A rebuild writes the same segment names with other contents: a
    scorer handed the old scorer's readers must not reuse them."""
    idx, src, _full = built
    sc1 = ShardScorer(idx, 0)
    build_index(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    sc2 = ShardScorer(idx, 0, reader_cache=sc1.reader_cache)
    assert not set(sc1.reader_cache.values()) & set(sc2.reader_cache.values())
    fresh = ShardScorer(idx, 0)
    assert [len(r.doc_map) for _g, r in sc2.readers[0]] == \
        [len(r.doc_map) for _g, r in fresh.readers[0]]
