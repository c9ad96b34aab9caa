"""Prefix (wildcard ``foo*``) and regexp queries — Lucene/Solr's top-terms
scoring rewrite over the pinned term dictionary (the reference's Virgo UI
issues these against Solr's ``*_tsearch`` fields; Solr rewrites them to an
OR of the highest-frequency matching terms, capped at maxExpansions).

Two steps, both at the pool's pinned marker:

1. **expansion** — a lookup in the pool's ``Vocabulary``
   (``query.TermStatsStore``): a prefix is one sorted range of it, a
   pattern a Python ``re.fullmatch`` over its terms; each keeps its top
   ``max_expansions`` terms by (df desc, term asc);
2. **scoring** — each query's expanded terms run as one OR query through
   the BM25 pool: a doc's score is the BM25 sum over whichever expanded
   terms it contains (Lucene TopTermsScoringBooleanQueryRewrite
   semantics).

Determinism: the expansion cut orders by (df desc, term asc) — a total
order, so the same corpus always expands to the same term set on both the
engine and the SQL-oracle side.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.tokenize import TOKEN_RE


def _normalize_prefix(prefix: str) -> str | None:
    """Lowercase and keep the leading token-charset run ('Sca*' -> 'sca')."""
    m = TOKEN_RE.search(prefix.lower())
    return m.group(0) if m else None


def _prefix_rows(vocab, prefixes: list[str], limit: int
                 ) -> dict[str, np.ndarray]:
    """raw prefix -> its top-``limit`` vocabulary rows."""
    out = {}
    for raw in prefixes:
        p = _normalize_prefix(raw)
        out[raw] = (vocab.ranked(vocab.prefixed(p), limit) if p
                    else np.empty(0, np.int64))
    return out


def _regex_rows(vocab, patterns: list[str], limit: int
                ) -> dict[str, np.ndarray]:
    """pattern -> the top-``limit`` vocabulary rows it fully matches (a
    bad pattern raises here, on the caller's side)."""
    out = {}
    for p in patterns:
        full = re.compile(p).fullmatch
        out[p] = vocab.ranked(
            np.flatnonzero([full(t) is not None for t in vocab.terms]), limit)
    return out


def _terms(rows_of, vocab, keys: list[str], limit: int
           ) -> dict[str, list[str]]:
    """key -> the terms of the rows ``rows_of`` (``_prefix_rows`` or
    ``_regex_rows``) finds for it."""
    return {key: vocab.terms[r].tolist()
            for key, r in rows_of(vocab, keys, limit).items()}


def _frame(key_col: str, vocab, rows: dict[str, np.ndarray]) -> pd.DataFrame:
    """(key_col, term, df) rows of each key in turn."""
    keys = [key for key, r in rows.items() for _ in range(len(r))]
    every = (np.concatenate(list(rows.values())).astype(np.int64)
             if rows else np.empty(0, np.int64))
    return pd.DataFrame({
        key_col: pd.Series(keys, dtype=object),
        "term": pd.Series(vocab.terms[every], dtype=object),
        "df": vocab.df[every],
    })


def browse_terms(
    index_dir: str, prefixes: list[str], limit: int = 50
) -> pd.DataFrame:
    """Vocabulary browse (the Solr terms component): (prefix, term, df) —
    for each raw prefix, its top-``limit`` matching vocabulary terms by
    (df desc, term asc), with document frequencies."""
    from .query import get_pool

    return get_pool(index_dir).vocabulary_lookup(lambda v: _frame(
        "prefix", v, _prefix_rows(v, list(dict.fromkeys(prefixes)), limit)))


def browse_terms_regex(
    index_dir: str, patterns: list[str], limit: int = 50
) -> pd.DataFrame:
    """Regexp query expansion (Lucene/Solr ``field:/re/`` RegexpQuery):
    (pattern, term, df) — the top-``limit`` vocabulary terms FULLY matching
    each anchored pattern, by (df desc, term asc). Patterns should stick to
    the RE2-portable subset (classes, alternation, quantifiers) so external
    oracles agree."""
    from .query import get_pool

    return get_pool(index_dir).vocabulary_lookup(lambda v: _frame(
        "pattern", v, _regex_rows(v, list(dict.fromkeys(patterns)), limit)))


def expand_prefixes(
    index_dir: str, prefixes: list[str], max_expansions: int = 50
) -> dict[str, list[str]]:
    """raw prefix -> top-``max_expansions`` matching vocabulary terms by
    (df desc, term asc). Unmatched/empty -> []."""
    from .query import get_pool

    return get_pool(index_dir).vocabulary_lookup(
        lambda v: _terms(_prefix_rows, v, prefixes, max_expansions))


def expand_prefix(index_dir: str, prefix: str, max_expansions: int = 50) -> list[str]:
    return expand_prefixes(index_dir, [prefix], max_expansions)[prefix]


def regex_topk(
    index_dir: str, queries: pa.Table, max_expansions: int = 50
) -> pa.Table:
    """Regexp-query BM25 top-k (RegexpQuery with the top-terms scoring
    rewrite — the same contract as ``prefix_topk``).

    ``queries``: (query_id:int64, pattern:string, k:int32). Returns
    (query_id, rank, doc_id, score); a pattern matching no vocabulary term
    contributes no rows."""
    from .query import get_pool

    return get_pool(index_dir).expanded_topk(
        queries, "pattern", lambda store, patterns: _terms(
            _regex_rows, store.vocabulary(), patterns, max_expansions))


def prefix_topk(
    index_dir: str, queries: pa.Table, max_expansions: int = 50
) -> pa.Table:
    """Prefix-query BM25 top-k.

    ``queries``: (query_id:int64, prefix:string, k:int32). Returns
    (query_id, rank, doc_id, score); a prefix matching no vocabulary term
    contributes no rows."""
    from .query import get_pool

    return get_pool(index_dir).expanded_topk(
        queries, "prefix", lambda store, prefixes: _terms(
            _prefix_rows, store.vocabulary(), prefixes, max_expansions))
