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

The source texts are read in process with a column-pruned, id-filtered
``pyarrow.dataset`` scan (only the requested ids' texts move); the terms
are chosen with the pool's pinned store and scored by the pool at the
same marker (``QueryPool.expanded_topk``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tokenize import tokenize_text
from .segments import numpy_table


def _interesting(store, texts: dict, max_terms: int) -> dict:
    out = {}
    for key, text in texts.items():
        # source text tokenizes through the index's analyzer (qtext) so the
        # tf counted here is over the same token stream the df/idf describe
        toks = tokenize_text(store.qtext(text))
        if not toks:
            out[key] = []
            continue
        terms, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        plans = {p.term: p for p in store.plan_query(" ".join(terms.tolist()))}
        rows = [
            (round(float(c) * plans[t].idf, 6), t)
            for t, c in zip(terms, counts)
            if t in plans
        ]
        rows.sort(key=lambda r: (-r[0], r[1]))
        out[key] = [t for _, t in rows[:max_terms]]
    return out


def interesting_terms(
    index_dir: str,
    texts_by_qid: dict[int, str],
    max_terms: int = 10,
) -> dict[int, list[str]]:
    """query_id -> top ``max_terms`` terms of that source text by
    (round(tf*idf, 6) desc, term asc), at the pool's pinned marker. Terms
    absent from the vocabulary (impossible for indexed docs, possible for
    ad-hoc text) are skipped."""
    from .query import get_pool

    pool = get_pool(index_dir)
    return pool._repinning(
        lambda: _interesting(pool.store, texts_by_qid, max_terms))


def fetch_texts(
    corpus_path: str, doc_ids: list[int],
    id_col: str = "doc_id", text_col: str = "text",
) -> dict[int, str]:
    """Column-pruned, id-filtered read of the requested source texts — only
    len(doc_ids) rows ever leave the scan."""
    import pyarrow.dataset as pads

    t = pads.dataset(corpus_path, format="parquet",
                     partitioning="hive").to_table(
        columns=[id_col, text_col],
        filter=pads.field(id_col).isin([int(d) for d in doc_ids]))
    return dict(zip(t[id_col].to_pylist(), t[text_col].to_pylist()))


def more_like_this(
    index_dir: str,
    corpus_path: str,
    queries: pa.Table,
    max_terms: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """MLT top-k.

    ``queries``: (query_id:int64, doc_id:int64, k:int32). Returns
    (query_id, rank, doc_id, score) with the source doc excluded; a source
    doc with no scoreable terms contributes no rows."""
    from .query import get_pool

    srcs = [int(d) for d in queries["doc_id"].to_pylist()]
    ks = [int(k) for k in queries["k"].to_pylist()]
    texts = fetch_texts(corpus_path, sorted(set(srcs)), id_col, text_col)
    t = get_pool(index_dir).expanded_topk(
        pa.table({"query_id": pa.array(range(len(srcs)), pa.int64()),
                  "doc_id": pa.array(srcs, pa.int64()),
                  # +1: the source doc may occupy one slot before exclusion
                  "k": pa.array([k + 1 for k in ks], pa.int32())}),
        "doc_id", lambda store, ids: _interesting(
            store, {d: texts.get(d, "") for d in ids}, max_terms))
    # query_id is the row number (ascending, each in rank order) until the
    # source doc is out and the ranks restart from 1
    row, doc, score = (t[c].to_numpy() for c in ("query_id", "doc_id", "score"))
    keep = doc != np.asarray(srcs, np.int64)[row]
    row, doc, score = row[keep], doc[keep], score[keep]
    rank = np.arange(len(row)) - np.searchsorted(row, row) + 1
    keep = rank <= np.asarray(ks, np.int64)[row]
    return numpy_table({
        "query_id": queries["query_id"].to_numpy()[row[keep]],
        "rank": rank[keep], "doc_id": doc[keep], "score": score[keep]})
