"""Spellcheck / did-you-mean (Solr SpellCheckComponent,
DirectSolrSpellChecker analogue) over the pinned term dictionary.

Reference behavior mirrored: a query word already present in the index
vocabulary is "correct" and gets NO suggestions; a missing word is corrected
from index terms within ``max_distance`` edits, ranked by
(distance asc, df desc, term asc), capped at ``max_suggestions``
(cf. Solr's spellcheck.count + "alternativeTermCount=0" semantics).

The lookup is the fuzzy one (``query.Vocabulary.near``) at the pool's
pinned marker, cut at ``max_suggestions + 1``: the +1 holds the word's own
dist-0 row, which marks it correct.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.tokenize import tokenize_text

_EMPTY = pd.DataFrame({
    "word": pd.Series([], dtype=object),
    "rank": pd.Series([], dtype=np.int64),
    "suggestion": pd.Series([], dtype=object),
    "dist": pd.Series([], dtype=np.int64),
    "df": pd.Series([], dtype=np.int64),
})


def _suggest(vocab, words: list[str], max_distance: int,
             max_suggestions: int) -> pd.DataFrame:
    frames = []
    for raw in dict.fromkeys(words):
        norm = (tokenize_text(raw) or [None])[0]
        if not norm:
            continue
        rows, dist = vocab.near(norm, max_distance, max_suggestions + 1)
        if not len(dist) or dist[0] == 0:
            continue  # hopeless, or in the vocabulary -> correct
        rows, dist = rows[:max_suggestions], dist[:max_suggestions]
        frames.append(pd.DataFrame({
            "word": pd.Series([raw] * len(rows), dtype=object),
            "rank": np.arange(1, len(rows) + 1, dtype=np.int64),
            "suggestion": pd.Series(vocab.terms[rows], dtype=object),
            "dist": dist,
            "df": vocab.df[rows],
        }))
    if not frames:
        return _EMPTY.copy()
    return pd.concat(frames, ignore_index=True)


def spellcheck(
    index_dir: str,
    words: list[str],
    max_distance: int = 2,
    max_suggestions: int = 5,
) -> pd.DataFrame:
    """-> (word, rank, suggestion, dist, df): top corrections per MISSING
    word; vocabulary words (and words with no in-distance candidates beyond
    themselves) contribute no rows. ``word`` holds the caller's raw string."""
    from .query import get_pool

    return get_pool(index_dir).vocabulary_lookup(
        lambda v: _suggest(v, words, max_distance, max_suggestions))


def collate(words: list[str], suggestions: pd.DataFrame) -> str:
    """Solr-style collation: the original query with each misspelled word
    replaced by its rank-1 suggestion."""
    best = {
        w: g.loc[g["rank"].idxmin(), "suggestion"]
        for w, g in suggestions.groupby("word")
    }
    return " ".join(best.get(w, w) for w in words)
