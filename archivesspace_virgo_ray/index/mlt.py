"""More-like-this (Solr MLT handler): given source documents, select their
most "interesting" terms and rank the corpus by BM25 similarity to them.

Semantics (pinned by tests/test_mlt.py):

1. interesting terms of a source doc = its distinct tokens scored by
   ``round(tf_in_doc * idf, 6)`` with the engine's BM25 idf
   (``ln((n - df + 0.5) / (df + 0.5) + 1)``), cut to ``max_terms`` by
   (score desc, term asc) — rounding makes cross-engine float ordering
   exact, the same trick the BM25 oracle contract uses;
2. the selected terms run as one OR query through the BM25 pool
   (scores identical to a user typing those terms);
3. the source doc itself is excluded from its result list.

Scale shape: source texts are fetched with a pushdown-filtered column-pruned
read (only the requested ids' texts move); term idf comes from the sealed
termstats store (driver-side lookups for a handful of terms); scoring is the
normal distributed scatter/merge path — per-shard top-k heaps only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.tokenize import tokenize_text


def interesting_terms(
    index_dir: str,
    texts_by_qid: dict[int, str],
    max_terms: int = 10,
) -> dict[int, list[str]]:
    """query_id -> top ``max_terms`` terms of that source text by
    (round(tf*idf, 6) desc, term asc). Terms absent from the vocabulary
    (impossible for indexed docs, possible for ad-hoc text) are skipped."""
    from .query import TermStatsStore

    store = TermStatsStore(index_dir)
    out: dict[int, list[str]] = {}
    for qid, text in texts_by_qid.items():
        # source text tokenizes through the index's analyzer (qtext) so the
        # tf counted here is over the same token stream the df/idf describe
        toks = tokenize_text(store.qtext(text))
        if not toks:
            out[qid] = []
            continue
        terms, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        plans = {p.term: p for p in store.plan_query(" ".join(terms.tolist()))}
        rows = [
            (round(float(c) * plans[t].idf, 6), t)
            for t, c in zip(terms, counts)
            if t in plans
        ]
        rows.sort(key=lambda r: (-r[0], r[1]))
        out[qid] = [t for _, t in rows[:max_terms]]
    return out


def fetch_texts(
    corpus_path: str, doc_ids: list[int],
    id_col: str = "doc_id", text_col: str = "text",
) -> dict[int, str]:
    """Column-pruned, id-filtered read of the requested source texts — only
    len(doc_ids) rows ever leave the scan."""
    import pyarrow.compute as pc
    import ray.data

    ds = ray.data.read_parquet(
        corpus_path, columns=[id_col, text_col],
        filter=pc.field(id_col).isin([int(d) for d in doc_ids]),
    )
    df = ds.to_pandas()
    if len(df) == 0 or id_col not in df.columns:
        return {}
    return dict(zip(df[id_col].astype(np.int64), df[text_col]))


def more_like_this(
    index_dir: str,
    corpus_path: str,
    queries: pa.Table,
    max_terms: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """Distributed MLT top-k.

    ``queries``: (query_id:int64, doc_id:int64, k:int32). Returns
    (query_id, rank, doc_id, score) with the source doc excluded; a source
    doc with no scoreable terms contributes no rows."""
    from .query import QueryPool, get_pool

    qids = [int(q) for q in queries["query_id"].to_pylist()]
    srcs = [int(d) for d in queries["doc_id"].to_pylist()]
    ks = [int(k) for k in queries["k"].to_pylist()]
    texts = fetch_texts(corpus_path, sorted(set(srcs)), id_col, text_col)
    terms_by_qid = interesting_terms(
        index_dir,
        {qid: texts.get(src, "") for qid, src in zip(qids, srcs)},
        max_terms,
    )

    pool = get_pool(index_dir)
    parts = []
    for qid, src, k in zip(qids, srcs, ks):
        terms = terms_by_qid.get(qid, [])
        if not terms:
            continue
        t = pool.topk(pa.table({
            "query_id": pa.array([qid], pa.int64()),
            "text": pa.array([" ".join(terms)], pa.string()),
            # +1: the source doc may occupy one slot before exclusion
            "k": pa.array([k + 1], pa.int32()),
        })).to_pandas()
        t = t[t["doc_id"] != src].head(k).reset_index(drop=True)
        if len(t):
            t["rank"] = np.arange(1, len(t) + 1, dtype=np.int64)
            parts.append(pa.Table.from_pandas(t, preserve_index=False))
    return pa.concat_tables(parts) if parts else QueryPool._EMPTY_TOPK
