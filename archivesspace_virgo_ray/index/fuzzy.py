"""Fuzzy queries (Solr ``term~d``, d <= 2) — Lucene's FuzzyQuery top-terms
rewrite re-expressed over the termstats vocabulary.

Expansion is ONE distributed column-pruned scan of the sealed termstats
parquet for ALL query words together: each block prunes candidates to the
``|len(term) - len(word)| <= d`` band (vectorized) before running the
Levenshtein DP on survivors, and keeps its local top-``max_expansions`` per
word by (distance asc, df desc, term asc) — the driver merges
k×blocks×words rows. The expanded set then scores as one OR query through
the BM25 pool, exactly like prefix queries.

Determinism contract (mirrored bit-for-bit by the DuckDB oracle): plain
unit-cost Levenshtein (no transpositions — DuckDB's ``levenshtein``), cut by
(distance asc, df desc, term asc).

Scale note: at extreme vocabularies Lucene walks a Levenshtein automaton
over an FST instead of scanning; the length-band + capped-per-block scan
here is the Dataset-native equivalent and stays proportional to vocabulary
bytes, never corpus bytes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.tokenize import tokenize_text


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute), two-row DP."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def expand_fuzzy(
    index_dir: str,
    words: list[str],
    max_distance: int = 2,
    max_expansions: int = 50,
) -> dict[str, list[str]]:
    """word -> top matching vocabulary terms within ``max_distance`` edits,
    by (distance asc, df desc, term asc). Single vocabulary scan."""
    import ray.data

    from .build import termstats_dir

    out: dict[str, list[str]] = {w: [] for w in words}
    norm = {w: (tokenize_text(w) or [None])[0] for w in words}
    live = sorted({n for n in norm.values() if n})
    if not live:
        return out

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        tlen = df["term"].str.len().to_numpy()
        frames = []
        for w in live:
            band = np.abs(tlen - len(w)) <= max_distance
            cand = df[band]
            if len(cand) == 0:
                continue
            dist = np.fromiter(
                (levenshtein(w, t) for t in cand["term"]),
                dtype=np.int64, count=len(cand),
            )
            hit = cand[dist <= max_distance].copy()
            if len(hit) == 0:
                continue
            hit["dist"] = dist[dist <= max_distance]
            hit["word"] = w
            hit = hit.sort_values(
                ["dist", "df", "term"], ascending=[True, False, True]
            ).head(max_expansions)
            frames.append(hit)
        return (
            pd.concat(frames, ignore_index=True)
            if frames
            else pd.DataFrame({
                "term": pd.Series([], dtype=object),
                "df": pd.Series([], dtype=np.int64),
                "dist": pd.Series([], dtype=np.int64),
                "word": pd.Series([], dtype=object),
            })
        )

    matched = (
        ray.data.read_parquet(termstats_dir(index_dir), columns=["term", "df"])
        .map_batches(topn, batch_format="pandas")
        .to_pandas()
    )
    if len(matched) == 0 or "term" not in matched.columns:
        return out
    by_word: dict[str, list[str]] = {}
    for w, g in matched.groupby("word"):
        g = g.sort_values(
            ["dist", "df", "term"], ascending=[True, False, True]
        ).head(max_expansions)
        by_word[str(w)] = g["term"].tolist()
    for raw, n in norm.items():
        if n:
            out[raw] = by_word.get(n, [])
    return out


def fuzzy_topk(
    index_dir: str,
    queries: pa.Table,
    max_distance: int = 2,
    max_expansions: int = 50,
) -> pa.Table:
    """Distributed fuzzy-query BM25 top-k.

    ``queries``: (query_id:int64, word:string, k:int32). Returns
    (query_id, rank, doc_id, score); a word with no in-distance vocabulary
    term contributes no rows."""
    from .query import QueryPool, get_pool

    pool = get_pool(index_dir)
    qids = [int(q) for q in queries["query_id"].to_pylist()]
    words = queries["word"].to_pylist()
    ks = [int(k) for k in queries["k"].to_pylist()]
    expanded = expand_fuzzy(
        index_dir, list(dict.fromkeys(words)), max_distance, max_expansions
    )

    parts = []
    for qid, word, k in zip(qids, words, ks):
        terms = expanded.get(word, [])
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
