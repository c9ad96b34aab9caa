"""Prefix (wildcard ``foo*``) queries — Lucene/Solr's top-terms scoring
rewrite, re-expressed over the termstats vocabulary (the reference's Virgo
UI issues these against Solr's ``*_tsearch`` fields; Solr rewrites them to
an OR of the highest-frequency matching terms, capped at maxExpansions).

Two phases, both bounded:

1. **expansion** — ONE distributed column-pruned scan of the sealed
   termstats parquet (``term, df`` only) for ALL prefixes of the batch,
   with the union of lexicographic range filters pushed to the row-group
   level (``prefix <= term < prefix⁺``); each block keeps its local
   top-``max_expansions`` per prefix by (df desc, term asc), the driver
   merges k×blocks×prefixes rows. The vocabulary is orders of magnitude
   smaller than the corpus, and only matching row groups leave storage.
2. **scoring** — each prefix's expanded terms run as one OR query through
   the normal BM25 pool: a doc's score is the BM25 sum over whichever
   expanded terms it contains (Lucene TopTermsScoringBooleanQueryRewrite
   semantics).

Determinism: the expansion cut orders by (df desc, term asc) — a total
order, so the same corpus always expands to the same term set on both the
engine and the SQL-oracle side.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.tokenize import TOKEN_RE


def _normalize_prefix(prefix: str) -> str | None:
    """Lowercase and keep the leading token-charset run ('Sca*' -> 'sca')."""
    m = TOKEN_RE.search(prefix.lower())
    return m.group(0) if m else None


def _range_expr(p: str):
    import pyarrow.dataset as pads

    # token charset is [a-z0-9_] (max ASCII 'z'): bumping the last char
    # yields a strict upper bound for every string with this prefix
    hi = p[:-1] + chr(ord(p[-1]) + 1)
    return (pads.field("term") >= p) & (pads.field("term") < hi)


def browse_terms(
    index_dir: str, prefixes: list[str], limit: int = 50
) -> pd.DataFrame:
    """Vocabulary browse (the Solr terms component): (prefix, term, df) —
    for each raw prefix, its top-``limit`` matching vocabulary terms by
    (df desc, term asc), with document frequencies. One column-pruned
    range-filtered scan of the sealed termstats parquet for ALL prefixes."""
    import ray.data

    from .build import termstats_dir

    empty = pd.DataFrame({
        "prefix": pd.Series([], dtype=object),
        "term": pd.Series([], dtype=object),
        "df": pd.Series([], dtype=np.int64),
    })
    norm = {p: _normalize_prefix(p) for p in prefixes}
    live = sorted({n for n in norm.values() if n})
    if not live:
        return empty

    expr = _range_expr(live[0])
    for p in live[1:]:
        expr = expr | _range_expr(p)

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for p in live:
            m = df[df["term"].str.startswith(p)].copy()
            if len(m) == 0:
                continue
            m = m.sort_values(["df", "term"], ascending=[False, True]).head(limit)
            m["prefix"] = p
            frames.append(m)
        return (
            pd.concat(frames, ignore_index=True)
            if frames
            else pd.DataFrame({
                "term": pd.Series([], dtype=object),
                "df": pd.Series([], dtype=np.int64),
                "prefix": pd.Series([], dtype=object),
            })
        )

    matched = (
        ray.data.read_parquet(
            termstats_dir(index_dir), columns=["term", "df"], filter=expr
        )
        .map_batches(topn, batch_format="pandas")
        .to_pandas()
    )
    if len(matched) == 0 or "term" not in matched.columns:
        return empty
    by_norm: dict[str, pd.DataFrame] = {
        str(p): g.sort_values(["df", "term"], ascending=[False, True]).head(limit)
        for p, g in matched.groupby("prefix")
    }
    frames = []
    for raw, n in norm.items():
        if n and n in by_norm:
            g = by_norm[n].copy()
            g["prefix"] = raw
            frames.append(g[["prefix", "term", "df"]])
    if not frames:
        return empty
    out = pd.concat(frames, ignore_index=True)
    out["df"] = out["df"].astype(np.int64)
    return out


def browse_terms_regex(
    index_dir: str, patterns: list[str], limit: int = 50
) -> pd.DataFrame:
    """Regexp query expansion (Lucene/Solr ``field:/re/`` RegexpQuery):
    (pattern, term, df) — the top-``limit`` vocabulary terms FULLY matching
    each anchored pattern, by (df desc, term asc). There is no range
    pushdown for general patterns, so this is ONE
    column-pruned (term+df) full termstats scan for all patterns together;
    per-block vectorized ``str.fullmatch`` + local top-N, k x blocks rows
    merged on the driver — work proportional to vocabulary bytes, never
    corpus bytes. Patterns should stick to the RE2-portable subset
    (classes, alternation, quantifiers) so external oracles agree."""
    import re

    import ray.data

    from .build import termstats_dir

    empty = pd.DataFrame({
        "pattern": pd.Series([], dtype=object),
        "term": pd.Series([], dtype=object),
        "df": pd.Series([], dtype=np.int64),
    })
    live = [p for p in dict.fromkeys(patterns)]
    for p in live:
        re.compile(p)  # surface bad patterns on the driver, not in tasks
    if not live:
        return empty

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for p in live:
            m = df[df["term"].str.fullmatch(p)].copy()
            if len(m) == 0:
                continue
            m = m.sort_values(["df", "term"], ascending=[False, True]).head(limit)
            m["pattern"] = p
            frames.append(m)
        return (
            pd.concat(frames, ignore_index=True)
            if frames
            else pd.DataFrame({
                "term": pd.Series([], dtype=object),
                "df": pd.Series([], dtype=np.int64),
                "pattern": pd.Series([], dtype=object),
            })
        )

    matched = (
        ray.data.read_parquet(termstats_dir(index_dir), columns=["term", "df"])
        .map_batches(topn, batch_format="pandas")
        .to_pandas()
    )
    if len(matched) == 0 or "term" not in matched.columns:
        return empty
    frames = []
    for p in live:
        g = matched[matched["pattern"] == p]
        if len(g):
            g = g.sort_values(["df", "term"], ascending=[False, True]).head(limit)
            frames.append(g[["pattern", "term", "df"]])
    if not frames:
        return empty
    out = pd.concat(frames, ignore_index=True)
    out["df"] = out["df"].astype(np.int64)
    return out


def regex_topk(
    index_dir: str, queries: pa.Table, max_expansions: int = 50
) -> pa.Table:
    """Distributed regexp-query BM25 top-k (RegexpQuery with the top-terms
    scoring rewrite — the same contract as ``prefix_topk``).

    ``queries``: (query_id:int64, pattern:string, k:int32). Returns
    (query_id, rank, doc_id, score); a pattern matching no vocabulary term
    contributes no rows."""
    from .query import QueryPool, get_pool

    pool = get_pool(index_dir)
    qids = [int(q) for q in queries["query_id"].to_pylist()]
    pats = queries["pattern"].to_pylist()
    ks = [int(k) for k in queries["k"].to_pylist()]
    browsed = browse_terms_regex(index_dir, list(dict.fromkeys(pats)),
                                 max_expansions)
    expanded: dict[str, list[str]] = {p: [] for p in pats}
    for p, g in browsed.groupby("pattern", sort=False):
        expanded[str(p)] = g["term"].tolist()

    parts = []
    for qid, pat, k in zip(qids, pats, ks):
        terms = expanded.get(pat, [])
        if not terms:
            continue
        t = pool.topk(pa.table({
            "query_id": pa.array([qid], pa.int64()),
            "text": pa.array([" ".join(terms)], pa.string()),
            "k": pa.array([k], pa.int32()),
        }))
        if t.num_rows:
            parts.append(t)
    return pa.concat_tables(parts) if parts else QueryPool._EMPTY_TOPK


def expand_prefixes(
    index_dir: str, prefixes: list[str], max_expansions: int = 50
) -> dict[str, list[str]]:
    """raw prefix -> top-``max_expansions`` matching vocabulary terms by
    (df desc, term asc), from a single scan. Unmatched/empty -> []."""
    browsed = browse_terms(index_dir, prefixes, max_expansions)
    out: dict[str, list[str]] = {p: [] for p in prefixes}
    for p, g in browsed.groupby("prefix", sort=False):
        out[str(p)] = g["term"].tolist()
    return out


def expand_prefix(index_dir: str, prefix: str, max_expansions: int = 50) -> list[str]:
    return expand_prefixes(index_dir, [prefix], max_expansions)[prefix]


def prefix_topk(
    index_dir: str, queries: pa.Table, max_expansions: int = 50
) -> pa.Table:
    """Distributed prefix-query BM25 top-k.

    ``queries``: (query_id:int64, prefix:string, k:int32). Returns
    (query_id, rank, doc_id, score); a prefix matching no vocabulary term
    contributes no rows."""
    from .query import QueryPool, get_pool

    pool = get_pool(index_dir)
    qids = [int(q) for q in queries["query_id"].to_pylist()]
    prefixes = queries["prefix"].to_pylist()
    ks = [int(k) for k in queries["k"].to_pylist()]
    expanded = expand_prefixes(index_dir, list(dict.fromkeys(prefixes)),
                               max_expansions)

    parts = []
    for qid, prefix, k in zip(qids, prefixes, ks):
        terms = expanded.get(prefix, [])
        if not terms:
            continue
        t = pool.topk(pa.table({
            "query_id": pa.array([qid], pa.int64()),
            "text": pa.array([" ".join(terms)], pa.string()),
            "k": pa.array([k], pa.int32()),
        }))
        if t.num_rows:
            parts.append(t)
    return pa.concat_tables(parts) if parts else QueryPool._EMPTY_TOPK
