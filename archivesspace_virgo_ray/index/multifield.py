"""Fielded search with boosts — the Solr dismax ``qf=title^2 body`` surface
(the query shape Virgo sends the reference's Solr cores) re-expressed over
per-field indexes.

Model: each field is its own inverted index over the same corpus (its own
df / dl / avgdl — exactly Lucene's per-field statistics), and a document's
dismax score is ``max_f(weight_f * BM25_f(q, d))``.

Exactness argument for the two-phase plan below: if doc d is in the true
combined top-k, then in its argmax field f every doc ranked above d in f
also outranks d in the combined order (its combined score >= its field-f
score > d's), so fewer than k docs precede d in field f — d is in field f's
top-k. Hence the union of per-field top-k heaps contains the true combined
top-k; an exact BM25 rescore of the union in EVERY field (a doc-id
whitelist query — scores are filter-invariant) then yields exact maxima.

Scale shape: phase 1 is the normal per-field scatter/merge (per-shard
heaps only); phase 2 whitelists k x n_fields ids per query — the whitelist
is evaluated shard-locally inside the workers, and only candidate-sized
score tables reach the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def dismax_topk(
    fields: list[tuple[str, float]],
    queries: pa.Table,
) -> pa.Table:
    """Distributed dismax top-k over ``[(index_dir, weight), ...]``.

    ``queries``: (query_id:int64, text:string, k:int32). Returns
    (query_id, rank, doc_id, score) with score = max_f(weight_f * bm25_f),
    ranked score desc / doc_id asc."""
    from .query import QueryPool, get_pool, query_ids

    pools = [(get_pool(d), float(w)) for d, w in fields]
    qids = query_ids(queries)
    texts = queries["text"].to_pylist()
    ks = [int(k) for k in queries["k"].to_pylist()]

    # phase 1: per-field top-k heaps
    phase1 = [pool.topk(queries).to_pandas() for pool, _ in pools]

    # phase 2: exact rescore of each query's candidate union in every field
    cands: dict[int, np.ndarray] = {}
    for qid in qids:
        ids = [t.loc[t["query_id"] == qid, "doc_id"].to_numpy() for t in phase1]
        cands[qid] = np.unique(np.concatenate(ids)) if ids else np.empty(0, np.int64)
    parts = []
    for (pool, w) in pools:
        for qid, text in zip(qids, texts):
            c = cands[qid]
            if len(c) == 0:
                continue
            q1 = pa.table({
                "query_id": pa.array([qid], pa.int64()),
                "text": pa.array([text], pa.string()),
                "k": pa.array([len(c)], pa.int32()),
            })
            t = pool.topk(
                q1, where=pc.field("doc_id").isin(c.tolist())).to_pandas()
            if len(t):
                t["score"] = w * t["score"].to_numpy()
                parts.append(t[["query_id", "doc_id", "score"]])

    if not parts:
        return QueryPool._EMPTY_TOPK
    allf = pd.concat(parts, ignore_index=True)
    best = allf.groupby(["query_id", "doc_id"], as_index=False)["score"].max()
    frames = []
    for qid, k in zip(qids, ks):
        g = best[best["query_id"] == qid]
        if len(g) == 0:
            continue
        g = g.sort_values(["score", "doc_id"], ascending=[False, True],
                          kind="mergesort").head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        frames.append(g[["query_id", "rank", "doc_id", "score"]])
    if not frames:
        return QueryPool._EMPTY_TOPK
    out = pd.concat(frames, ignore_index=True)
    out["query_id"] = out["query_id"].astype(np.int64)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)
