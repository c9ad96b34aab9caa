"""Shared helpers, constants and multi-domain oracles."""

from __future__ import annotations

import hashlib
import os
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ...functions.tokenize import TOKEN_RE


TOK_SQL = "string_split_regex(lower(text), '[^a-z0-9_]+')"


def _docs(sf_dir: str):
    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))


# --------------------------- BM25 flagship ---------------------------------

BM25_QUERIES = [(0, "join hash"), (1, "batch scan filter"), (2, "the data stream")]


BM25_K = 10


def _index_dir_for(sf_dir: str) -> str:
    """The cached index of ``sf_dir``, one per ``PIPELINE_VERSION``: an
    index of another version refuses to open, resume included."""
    from ... import PIPELINE_VERSION

    tag = hashlib.md5(f"{sf_dir}:{PIPELINE_VERSION}".encode()).hexdigest()[:8]
    return f"/tmp/avr_bm25_idx_{tag}"


# extra candidates fetched beyond k: ranking happens on 6-dp-ROUNDED scores
# (so the SQL oracle, whose float sum order differs, agrees bit-for-bit), and
# two docs tying at 6 dp but differing in full precision could straddle the
# unrounded rank-k boundary — the margin makes the rounded cut exact
_RANK_MARGIN = 10


def _build_docs_index(sf_dir: str) -> str:
    from ...index.build import BuildConfig, build_index

    idx = _index_dir_for(sf_dir)
    cfg = BuildConfig(
        n_shards=4, n_buckets=8, text_col="text", id_col="doc_id",
        meta_cols=("lang", "source", "n_chars"),
        # positional: phrase/slop entries verify from the index's positions
        # stream (Lucene model) instead of re-reading candidate raw text
        store_positions=True,
    )
    build_index(os.path.join(sf_dir, "documents.parquet"), idx, cfg, resume=True)
    return idx


def _ranked_topk(
    idx: str, queries=None, *, where=None, require_all: bool = False,
    k: int | None = None,
) -> pd.DataFrame:
    """Distributed scatter → round(6 dp) → rank (score desc, doc_id asc) →
    cut to ``k`` (default BM25_K). Column names match the oracle SQL exactly."""
    from ...index.query import bm25_topk

    queries = BM25_QUERIES if queries is None else queries
    k = BM25_K if k is None else k
    q = pa.table(
        {
            "query_id": pa.array([q for q, _ in queries], pa.int64()),
            "text": pa.array([t for _, t in queries], pa.string()),
            "k": pa.array([k + _RANK_MARGIN] * len(queries), pa.int32()),
        }
    )
    out = bm25_topk(idx, q, where=where, require_all=require_all).to_pandas()
    out["score"] = out["score"].round(6)
    out = out.sort_values(["query_id", "score", "doc_id"],
                          ascending=[True, False, True],
                          kind="mergesort", ignore_index=True)
    out["rank"] = (out.groupby("query_id").cumcount() + 1).astype(np.int64)
    out = out[out["rank"] <= k].reset_index(drop=True)
    return out[["query_id", "rank", "doc_id", "score"]]


def _bm25_sql(queries=None, k: int | None = None) -> str:
    queries = BM25_QUERIES if queries is None else queries
    k = BM25_K if k is None else k
    vals = ", ".join(
        f"({qid}, '{term}')"
        for qid, text in queries
        for term in sorted(set(TOKEN_RE.findall(text.lower())))
    )
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK_SQL}) AS term FROM documents),
tf AS (
  SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks WHERE term <> '' GROUP BY doc_id, term),
dl AS (
  SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl
  FROM toks WHERE term <> '' GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS avgdl),
dfreq AS (
  SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
q(query_id, term) AS (VALUES {vals}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum( ln((stats.n - dfreq.df + 0.5) / (dfreq.df + 0.5) + 1.0)
              * tf.tf * 2.2
              / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / stats.avgdl)) ) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN dfreq ON dfreq.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY q.query_id, tf.doc_id),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, score
FROM ranked WHERE rank <= {k}
"""


SESSION_BUCKETS = 64


# --------------------------- stats component --------------------------------
#
# Solr StatsComponent (stats.field=n_chars, stats.facet=lang) over a boolean
# OR match set: count / missing / min / max / sum exact in int64, then
# mean & sample-stddev derived from the exact sums by ONE fixed float
# expression mirrored in the SQL — no accumulation-order nondeterminism.
#
# Scale shape: the match set leaves the pool as a sorted id array and is
# broadcast once (ray.put); the stats pass is a streaming column-pruned scan
# + tree_aggregate (one partial row per (batch, lang)). Boundary: a match
# set too large to broadcast (≫10⁸ ids) flips to joins.hash_join semi-join —
# same partial/merge shape after it.
