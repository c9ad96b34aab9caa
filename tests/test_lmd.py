"""LM-Dirichlet similarity: engine vs a direct numpy reference on a planted
corpus, plus the clamp/zero-exclusion semantics."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.functions.tokenize import tokenize_text
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import lmd_topk, matching_doc_ids

MU = 2000.0


def _reference_lmd(texts, query, mu=MU):
    toks = [tokenize_text(t) for t in texts]
    dl = np.array([len(t) for t in toks], dtype=np.float64)
    total_len = dl.sum()
    cf = {}
    for t in toks:
        for w in t:
            cf[w] = cf.get(w, 0) + 1
    scores = np.zeros(len(texts))
    for term in sorted(set(tokenize_text(query))):
        if term not in cf:
            continue
        rate = total_len / (mu * cf[term])
        for i, t in enumerate(toks):
            tf = t.count(term)
            if tf:
                scores[i] += max(
                    0.0, np.log(1.0 + tf * rate) + np.log(mu / (dl[i] + mu)))
    return scores


def test_lmd_matches_reference(ray_session, tmp_path):
    texts = [
        "apple banana apple cherry",
        "banana banana banana",
        "apple cherry date egg fig grape",
        "date egg",
        "apple apple apple apple banana",
    ]
    d = tmp_path / "c.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d))
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, BuildConfig(n_shards=2, n_buckets=4, text_col="text",
                                         id_col="doc_id", meta_cols=()))
    query = "apple banana"
    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array([query], pa.string()),
                  "k": pa.array([5], pa.int32())})
    out = lmd_topk(idx, q, mu=MU).to_pandas()
    ref = _reference_lmd(texts, query)
    got = dict(zip(out["doc_id"], out["score"]))
    for doc, s in got.items():
        assert s == ref[int(doc)], (doc, s, ref[int(doc)])
    # ranking: reference order (score desc, doc asc) among positive scorers
    order = sorted((i for i in range(len(texts)) if ref[i] > 0 or i in got),
                   key=lambda i: (-ref[i], i))
    assert out["doc_id"].tolist()[:len(order)] == order[:len(out)]


def test_lmd_clamp_never_negative(ray_session, tmp_path):
    # one very common term in long docs -> raw contribution negative -> 0
    texts = ["the " * 300 + "rare", "the " * 300]
    d = tmp_path / "c.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d))
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, BuildConfig(n_shards=1, n_buckets=2, text_col="text",
                                         id_col="doc_id", meta_cols=()))
    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array(["the rare"], pa.string()),
                  "k": pa.array([5], pa.int32())})
    out = lmd_topk(idx, q, mu=MU).to_pandas()
    assert (out["score"] >= 0).all()
    # doc 0 holds the rare term -> strictly positive, ranked first
    assert out.iloc[0]["doc_id"] == 0 and out.iloc[0]["score"] > 0


def test_lmd_honours_not_and_min_match(ray_session, tmp_path):
    """``not_text``/``min_match`` restrict the LM-Dirichlet ranking exactly:
    the plain ranking over every doc, minus docs matching a NOT term or
    fewer than min_match query terms, cut to k."""
    rng = np.random.default_rng(7)
    vocab = ["apple", "banana", "cherry", "date", "egg", "fig"]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(1, 8))))
             for _ in range(150)]
    d = tmp_path / "c.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d))
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, BuildConfig(n_shards=2, n_buckets=4, text_col="text",
                                         id_col="doc_id", meta_cols=()))
    cases = [("apple banana", "cherry", None), ("apple banana", None, 2),
             ("banana date", "fig", 2)]
    q = pa.table({
        "query_id": pa.array(range(len(cases)), pa.int64()),
        "text": pa.array([t for t, _, _ in cases], pa.string()),
        "not_text": pa.array([n for _, n, _ in cases], pa.string()),
        "min_match": pa.array([m for _, _, m in cases], pa.int32()),
        "k": pa.array([5] * len(cases), pa.int32()),
    })
    got = lmd_topk(idx, q, mu=MU).to_pandas()
    full = lmd_topk(idx, q.select(["query_id", "text"]).append_column(
        "k", pa.array([len(texts)] * len(cases), pa.int32())), mu=MU).to_pandas()
    for qid, (text, not_text, mm) in enumerate(cases):
        ok = set(matching_doc_ids(idx, text, mode="and" if mm else "or").tolist())
        if not_text:
            ok -= set(matching_doc_ids(idx, not_text, mode="or").tolist())
        rows = full[(full["query_id"] == qid) & full["doc_id"].isin(ok)][:5]
        mine = got[got["query_id"] == qid]
        assert mine["doc_id"].tolist() == rows["doc_id"].tolist(), qid
        assert mine["score"].tolist() == rows["score"].tolist(), qid
        assert mine["rank"].tolist() == list(range(1, len(rows) + 1)), qid
        assert len(rows) == 5 and rows["doc_id"].tolist() != full[
            full["query_id"] == qid]["doc_id"].tolist()[:5], qid
