"""Federated search with global stats must be BIT-IDENTICAL to one combined
index over the union corpus — the Solr ExactStatsCache model."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.federated import FederatedSearcher
from archivesspace_virgo_ray.index.query import bm25_topk

CORPUS = "/root/testdata/sf0.001/documents.parquet"
QUERIES = ["the data model", "index shard bucket", "a", "zzzz_absent",
           "distributed search ranking"]


def _cfg(s, b):
    return BuildConfig(n_shards=s, n_buckets=b, text_col="text",
                       id_col="doc_id", meta_cols=("lang", "source"))


@pytest.fixture(scope="module")
def split_indexes(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("fed")
    t = pq.read_table(CORPUS)
    even = t.filter(pa.compute.equal(pa.compute.bit_wise_and(
        t["doc_id"], pa.scalar(1, pa.int64())), pa.scalar(0, pa.int64())))
    odd = t.filter(pa.compute.equal(pa.compute.bit_wise_and(
        t["doc_id"], pa.scalar(1, pa.int64())), pa.scalar(1, pa.int64())))
    pq.write_table(even, str(root / "even.parquet"))
    pq.write_table(odd, str(root / "odd.parquet"))
    a, b, c = str(root / "idx_a"), str(root / "idx_b"), str(root / "idx_c")
    # members get DIFFERENT layouts on purpose — plans must carry local buckets
    build_index(str(root / "even.parquet"), a, _cfg(2, 4))
    build_index(str(root / "odd.parquet"), b, _cfg(4, 8))
    build_index(CORPUS, c, _cfg(4, 8))
    return a, b, c


def _qtable(k=10):
    return pa.table({
        "query_id": pa.array(range(len(QUERIES)), pa.int64()),
        "text": pa.array(QUERIES, pa.string()),
        "k": pa.array([k] * len(QUERIES), pa.int32()),
    })


def test_federated_bit_identical_to_combined(split_indexes):
    a, b, c = split_indexes
    fed = FederatedSearcher([a, b])
    got = fed.topk(_qtable()).to_pandas()
    want = bm25_topk(c, _qtable()).to_pandas()
    got = got.sort_values(["query_id", "rank"], ignore_index=True)
    want = want.sort_values(["query_id", "rank"], ignore_index=True)
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    # EXACT float equality — the global-stats contract, not approximate
    assert got["score"].tolist() == want["score"].tolist()
    assert got["query_id"].tolist() == want["query_id"].tolist()


def test_federated_global_stats_merge(split_indexes):
    a, b, c = split_indexes
    fed = FederatedSearcher([a, b])
    from archivesspace_virgo_ray.index.segments import read_stats

    sc = read_stats(c)
    assert fed.n_docs == sc["n_docs"]
    assert fed.total_len == sc["total_len"]
    assert fed.avgdl == sc["avgdl"]


def test_single_member_matches_plain_topk(split_indexes):
    a, _, _ = split_indexes
    fed = FederatedSearcher([a])
    got = fed.topk(_qtable()).to_pandas()
    want = bm25_topk(a, _qtable()).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()


def test_federated_filtered_matches_combined(split_indexes):
    import pyarrow.dataset as pads

    a, b, c = split_indexes
    from archivesspace_virgo_ray.index.query import bm25_topk

    fed = FederatedSearcher([a, b])
    where = pads.field("lang") == "en"
    got = fed.topk(_qtable(), where=where).to_pandas()
    want = bm25_topk(c, _qtable(), where=where).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()


def test_federated_lmd_bit_identical(split_indexes):
    from archivesspace_virgo_ray.index.query import lmd_topk

    a, b, c = split_indexes
    fed = FederatedSearcher([a, b])
    got = fed.topk_lmd(_qtable(), mu=2000.0).to_pandas()
    want = lmd_topk(c, _qtable(), mu=2000.0).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()


def test_federated_honours_not_min_match_and_cursor(split_indexes):
    """``not_text``, ``min_match`` and a cursor restrict federated answers
    exactly as they restrict ``bm25_topk`` on the combined index."""
    a, b, c = split_indexes
    texts = ["the data model", "dup hash join table", "a", "sort merge"]
    plain = pa.table({
        "query_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "k": pa.array([10] * len(texts), pa.int32()),
    })
    third = bm25_topk(c, plain).to_pandas().query("query_id == 2 and rank == 3")
    cs, cd = round(float(third["score"].iloc[0]), 6), int(third["doc_id"].iloc[0])
    q = (plain.append_column("not_text", pa.array(["data", None, None, "window"]))
         .append_column("min_match", pa.array([None, 4, None, 2], pa.int32()))
         .append_column("cursor_score", pa.array([None, None, cs, None]))
         .append_column("cursor_doc", pa.array([None, None, cd, None], pa.int64())))
    fed = FederatedSearcher([a, b])
    got = fed.topk(q).to_pandas()
    want = bm25_topk(c, q).to_pandas()
    assert got["query_id"].tolist() == want["query_id"].tolist()
    assert got["rank"].tolist() == want["rank"].tolist()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()
    base = fed.topk(plain).to_pandas()
    for qid in range(len(texts)):  # every side channel changes its query
        assert (got[got["query_id"] == qid]["doc_id"].tolist()
                != base[base["query_id"] == qid]["doc_id"].tolist()), qid
