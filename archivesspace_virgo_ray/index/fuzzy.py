"""Fuzzy queries (Solr ``term~d``, d <= 2) — Lucene's FuzzyQuery top-terms
rewrite over the pinned term dictionary.

Expansion reads the pool's ``Vocabulary`` (``query.TermStatsStore``): the
terms in the ``|len(term) - len(word)| <= d`` length band reach the
Levenshtein DP, and the first ``max_expansions`` within ``d`` edits by
(distance asc, df desc, term asc) are kept. The expanded set then scores
as one OR query through the BM25 pool at the same marker, exactly like
prefix queries.

Determinism contract (mirrored bit-for-bit by the DuckDB oracle): plain
unit-cost Levenshtein (no transpositions — DuckDB's ``levenshtein``), cut by
(distance asc, df desc, term asc).
"""

from __future__ import annotations

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


def _expand(vocab, words: list[str], max_distance: int,
            max_expansions: int) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for w in words:
        norm = (tokenize_text(w) or [None])[0]
        rows = (vocab.near(norm, max_distance, max_expansions)[0]
                if norm else [])
        out[w] = vocab.terms[rows].tolist()
    return out


def expand_fuzzy(
    index_dir: str,
    words: list[str],
    max_distance: int = 2,
    max_expansions: int = 50,
) -> dict[str, list[str]]:
    """word -> top matching vocabulary terms within ``max_distance`` edits,
    by (distance asc, df desc, term asc), at the pool's pinned marker."""
    from .query import get_pool

    return get_pool(index_dir).vocabulary_lookup(
        lambda v: _expand(v, words, max_distance, max_expansions))


def fuzzy_topk(
    index_dir: str,
    queries: pa.Table,
    max_distance: int = 2,
    max_expansions: int = 50,
) -> pa.Table:
    """Fuzzy-query BM25 top-k.

    ``queries``: (query_id:int64, word:string, k:int32). Returns
    (query_id, rank, doc_id, score); a word with no in-distance vocabulary
    term contributes no rows."""
    from .query import get_pool

    return get_pool(index_dir).expanded_topk(
        queries, "word", lambda store, words: _expand(
            store.vocabulary(), words, max_distance, max_expansions))
