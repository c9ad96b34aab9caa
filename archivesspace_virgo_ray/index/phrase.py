"""Exact-phrase retrieval over the BM25 index (Solr's phrase-query surface,
``q="..."`` — the reference delegates it to Solr via the ``*_tsearch``
dynamic fields, ASpaceObject.java:253).

Two verification strategies, picked by what the index stores:

- **positional** (``BuildConfig(store_positions=True)``): segments carry a
  delta+varbyte positions stream next to each posting (the Lucene model —
  what Solr gives the reference's ``*_text`` fields); phrase and slop
  queries verify inside the shard workers (``ShardWorker.phrase_ids``) and
  never touch stored text.
- **text-verify fallback** (positions off — the default build, which keeps
  index bytes ~2x smaller when phrases are rare): two-phase over the
  structures we already have:

1. **candidates** — docs containing ALL phrase terms, via the shard-parallel
   boolean AND over the postings (``QueryPool.matching_doc_ids``). The
   candidate set is bounded by the rarest term's document frequency.
2. **verification** — ONE distributed ``map_batches`` pass over the corpus
   parquet for ALL queries together, pruned to the candidate-id union
   (broadcast via ``ray.put``, so the id set ships once per task, not per
   batch). A candidate verifies when the phrase tokens occur consecutively
   in its token stream (same tokenizer as the index build).
3. **scoring** — the normal distributed BM25 scatter restricted to the
   verified ids (a pyarrow ``isin`` whitelist through the pool's ``where``
   path), one pipelined submit per query. Surviving docs score IDENTICALLY
   to the unrestricted query — phrase matching changes membership, never
   the score math.

Partitioning assumption: verified-set sizes are << corpus (rarest-term df
bound). For pathological whitelists (millions of ids) the ``isin``
expression should be replaced by an object-store ref + join; at that
cardinality a positional index is the right trade anyway.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.tokenize import TOKEN_RE, tokenize_text


def phrase_needle(phrase: str) -> str:
    """Space-delimited normalized needle; matching '' '' -bounded substrings
    of the joined token stream == consecutive-token containment."""
    return " " + " ".join(tokenize_text(phrase)) + " "


def slop_pattern(phrase: str, slop: int) -> str:
    """Regex over the space-joined token stream for ORDERED proximity
    (Solr ``"a b"~N`` restricted to in-order matches): adjacent phrase terms
    may be separated by at most ``slop`` intervening tokens EACH (per-gap
    budget — documented contract; Lucene's total-edit-budget variant differs
    once 3+ terms and uneven gaps are involved). The pattern is a regular
    language, so Python ``re`` and DuckDB's RE2 agree on match existence."""
    toks = tokenize_text(phrase)
    if not toks:
        return ""
    gap = f"(?: [a-z0-9_]+){{0,{int(slop)}}}"
    return " " + toks[0] + "".join(gap + " " + t for t in toks[1:]) + " "


_EMPTY_PAIRS = pd.DataFrame(
    {"query_id": pd.Series([], dtype=np.int64), "doc_id": pd.Series([], dtype=np.int64)}
)


def verify_phrases(
    docs_path: str,
    candidates: dict[int, np.ndarray],
    phrases: dict[int, str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    slops: dict[int, int] | None = None,
    analyzer: str = "plain",
) -> dict[int, np.ndarray]:
    """(query_id -> candidate ids) -> (query_id -> verified ids): one
    column-pruned corpus pass checks every query's phrase against every
    candidate text. Only candidate texts are tokenized — the union prune
    happens before any string work. ``slops[qid] > 0`` switches that query
    from exact consecutive containment to the ordered-proximity regex
    (``slop_pattern``)."""
    import ray
    import ray.data

    live = {q: p for q, p in phrases.items() if candidates.get(q) is not None
            and len(candidates[q])}
    empty = {q: np.empty(0, np.int64) for q in phrases}
    if not live:
        return empty

    slops = slops or {}
    union = np.unique(np.concatenate([candidates[q] for q in live]))
    union_ref = ray.put(union)
    from ..functions.tokenize import apply_analyzer

    # the index's analyzer applies to BOTH sides of the containment check:
    # the phrase needle and the candidate token stream tokenize exactly as
    # the build did (e.g. 'keyAgg' matches the split parts on ident indexes)
    needles = {
        q: (slop_pattern(apply_analyzer(analyzer, p), slops[q]), True)
        if slops.get(q, 0) > 0
        else (phrase_needle(apply_analyzer(analyzer, p)), False)
        for q, p in live.items()
    }
    _an = analyzer
    findall = TOKEN_RE.findall

    def check(df: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(union_ref)
        pos = np.searchsorted(w, df[id_col].to_numpy(np.int64))
        ok = pos < len(w)
        hit = np.zeros(len(df), dtype=bool)
        hit[ok] = w[pos[ok]] == df[id_col].to_numpy(np.int64)[ok]
        sub = df[hit]
        if len(sub) == 0:
            return _EMPTY_PAIRS.copy()
        joined = pd.Series(
            [" " + " ".join(findall(apply_analyzer(_an, t).lower())) + " "
             for t in sub[text_col]],
            index=sub.index,
        )
        frames = []
        for qid, (needle, is_regex) in needles.items():
            m = joined.str.contains(needle, regex=is_regex)
            ids = sub.loc[m, id_col].to_numpy(np.int64)
            if len(ids):
                frames.append(pd.DataFrame({
                    "query_id": np.full(len(ids), qid, dtype=np.int64),
                    "doc_id": ids,
                }))
        return pd.concat(frames, ignore_index=True) if frames else _EMPTY_PAIRS.copy()

    pairs = (
        ray.data.read_parquet(docs_path, columns=[id_col, text_col])
        .map_batches(check, batch_format="pandas")
        .to_pandas()
    )
    out = dict(empty)
    if len(pairs) == 0 or "query_id" not in pairs.columns:
        return out  # every block came back empty (schema may be dropped)
    for qid, g in pairs.groupby("query_id"):
        out[int(qid)] = np.sort(g["doc_id"].to_numpy(np.int64))
    return out


def phrase_topk(
    index_dir: str,
    docs_path: str,
    queries: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """Distributed exact-phrase BM25 top-k.

    ``queries``: (query_id:int64, text:string, k:int32[, slop:int]) —
    ``text`` is the phrase; k per query; an optional ``slop`` column turns
    a row into an ordered-proximity query (``slop_pattern``). Returns
    (query_id, rank, doc_id, score) where every hit contains the phrase
    tokens consecutively (or within slop), scored by standard BM25 over the
    phrase's terms. Zero-match phrases simply contribute no rows.

    When the index stores positions (``BuildConfig(store_positions=True)``),
    verification happens INSIDE the shard workers from the positions stream
    (the Lucene model — no raw-text re-read); otherwise it falls back to the
    two-phase candidates → text-verify scan documented above.
    """
    import pyarrow.dataset as pads

    from .query import QueryPool, get_pool, query_ids

    pool = get_pool(index_dir)
    qids = query_ids(queries)
    texts = queries["text"].to_pylist()
    ks = queries["k"].to_pylist()
    slops = (
        dict(zip(qids, (int(s) for s in queries["slop"].to_pylist())))
        if "slop" in queries.column_names else None
    )

    if pool.has_positions:
        verified = pool.phrase_ids(
            {q: (t, (slops or {}).get(q, 0)) for q, t in zip(qids, texts)}
        )
    else:
        candidates = {
            q: pool.matching_doc_ids(t, mode="and") for q, t in zip(qids, texts)
        }
        verified = verify_phrases(
            docs_path, candidates, dict(zip(qids, texts)),
            id_col=id_col, text_col=text_col, slops=slops,
            analyzer=pool.store.stats.get("analyzer", "plain"),
        )

    return _score_verified(pool, qids, texts, ks, verified, id_col)


def _score_verified(pool, qids, texts, ks, verified, id_col: str):
    """Per-query scoring against a per-query id whitelist. Surviving docs
    score IDENTICALLY to the unrestricted query."""
    import pyarrow.dataset as pads

    from .query import QueryPool

    parts = []
    for qid, text, k in zip(qids, texts, ks):
        ids = verified.get(qid)
        if ids is None or ids.size == 0:
            continue
        q1 = pa.table({
            "query_id": pa.array([qid], pa.int64()),
            "text": pa.array([text], pa.string()),
            "k": pa.array([int(k)], pa.int32()),
        })
        where = pads.field(id_col).isin(pa.array(ids, pa.int64()))
        t = pool.topk(q1, where, True)
        if t.num_rows:
            parts.append(t)
    return pa.concat_tables(parts) if parts else QueryPool._EMPTY_TOPK


def near_topk(
    index_dir: str,
    docs_path: str,
    queries: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """UNORDERED proximity BM25 top-k (the Lucene sloppy-phrase behavior for
    two terms — ``"a b"~N`` matches either order): a doc matches when the
    two tokens occur within ``slop`` intervening tokens in EITHER direction.

    ``queries``: (query_id:int64, text:string — exactly TWO tokens,
    k:int32, slop:int32). Implemented as the union of the two ordered
    proximity matches (for two terms, ordered(a,b,N) ∪ ordered(b,a,N) is
    exactly |posA − posB| − 1 ≤ N), reusing the positional or text-verify
    machinery; scoring is standard BM25 over the terms, identical to the
    unrestricted query for surviving docs."""
    from .query import get_pool, query_ids

    pool = get_pool(index_dir)
    qids = query_ids(queries)
    texts = queries["text"].to_pylist()
    ks = queries["k"].to_pylist()
    slops = dict(zip(qids, (int(s) for s in queries["slop"].to_pylist())))
    an = pool.store.stats.get("analyzer", "plain")
    from ..functions.tokenize import apply_analyzer

    atoks = {q: tokenize_text(apply_analyzer(an, t))
             for q, t in zip(qids, texts)}
    for q, t in zip(qids, texts):
        if len(atoks[q]) != 2:
            raise ValueError(f"near_topk wants exactly two tokens, got {t!r}")
    # analyzed text is a fixed point of the analyzer, so the reversed form
    # can ride the same qtext-applying pool paths unchanged
    rev = {q: " ".join(reversed(atoks[q])) for q in qids}

    if pool.has_positions:
        fwd = pool.phrase_ids({q: (t, slops[q]) for q, t in zip(qids, texts)})
        bwd = pool.phrase_ids({q: (rev[q], slops[q]) for q in qids})
    else:
        candidates = {
            q: pool.matching_doc_ids(t, mode="and") for q, t in zip(qids, texts)
        }
        fwd = verify_phrases(
            docs_path, candidates, dict(zip(qids, texts)),
            id_col=id_col, text_col=text_col, slops=slops, analyzer=an,
        )
        bwd = verify_phrases(
            docs_path, candidates, rev,
            id_col=id_col, text_col=text_col, slops=slops, analyzer=an,
        )
    verified = {
        q: np.union1d(fwd.get(q, np.empty(0, np.int64)),
                      bwd.get(q, np.empty(0, np.int64)))
        for q in qids
    }
    return _score_verified(pool, qids, texts, ks, verified, id_col)


def span_not_topk(
    index_dir: str,
    docs_path: str,
    queries: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """Lucene SpanNotQuery BM25 top-k: docs with at least one EXACT-phrase
    occurrence having no occurrence of the exclude term within ``dist``
    tokens of the span (pre = post = dist; dist 0 = the span itself).
    Exclusion is per-OCCURRENCE — a doc with one excluded and one clean
    occurrence still matches.

    ``queries``: (query_id:int64, text:string phrase, excl:string single
    term, dist:int32, k:int32). Positional indexes verify wholly in-index
    (``ShardWorker.span_not_ids``); the position-free fallback is one
    column-pruned distributed pass over the conjunctive candidates'
    token streams. Scoring is standard BM25 over the phrase terms for
    surviving docs, identical to the unrestricted query."""
    import ray
    import ray.data

    from .query import get_pool, query_ids

    pool = get_pool(index_dir)
    qids = query_ids(queries)
    texts = queries["text"].to_pylist()
    excls = dict(zip(qids, queries["excl"].to_pylist()))
    dists = dict(zip(qids, (int(d) for d in queries["dist"].to_pylist())))
    ks = queries["k"].to_pylist()

    if pool.has_positions:
        verified = pool.span_not_ids(
            {q: (t, excls[q], dists[q]) for q, t in zip(qids, texts)}
        )
    else:
        candidates = {
            q: pool.matching_doc_ids(t, mode="and") for q, t in zip(qids, texts)
        }
        live = {q: t for q, t in zip(qids, texts) if len(candidates[q])}
        verified = {q: np.empty(0, np.int64) for q in qids}
        if live:
            union = np.unique(np.concatenate([candidates[q] for q in live]))
            union_ref = ray.put(union)
            from ..functions.tokenize import apply_analyzer

            an = pool.store.stats.get("analyzer", "plain")
            phr_toks = {q: tokenize_text(apply_analyzer(an, t))
                        for q, t in live.items()}
            for q in live:
                etoks = tokenize_text(apply_analyzer(an, excls[q]))
                if len(etoks) != 1:
                    raise ValueError(
                        f"span_not wants a single exclude term, got {excls[q]!r}")
                excls[q] = etoks[0]
            findall = TOKEN_RE.findall

            def check(df: pd.DataFrame) -> pd.DataFrame:
                w = ray.get(union_ref)
                ids = df[id_col].to_numpy(np.int64)
                pos = np.searchsorted(w, ids)
                ok = pos < len(w)
                hit = np.zeros(len(df), dtype=bool)
                hit[ok] = w[pos[ok]] == ids[ok]
                sub = df[hit]
                out_q, out_d = [], []
                for did, t in zip(sub[id_col].to_numpy(np.int64),
                                  sub[text_col]):
                    toks = findall(apply_analyzer(an, t).lower())
                    n = len(toks)
                    for q, pt in phr_toks.items():
                        L, e, d = len(pt), excls[q], dists[q]
                        alive = False
                        for st in range(n - L + 1):
                            if toks[st:st + L] != pt:
                                continue
                            lo = max(st - d, 0)
                            hi = min(st + L - 1 + d, n - 1)
                            if e not in toks[lo:hi + 1]:
                                alive = True
                                break
                        if alive:
                            out_q.append(q)
                            out_d.append(int(did))
                return pd.DataFrame({
                    "query_id": pd.Series(out_q, dtype=np.int64),
                    "doc_id": pd.Series(out_d, dtype=np.int64),
                })

            pairs = (
                ray.data.read_parquet(docs_path, columns=[id_col, text_col])
                .map_batches(check, batch_format="pandas")
                .to_pandas()
            )
            if len(pairs) and "query_id" in pairs.columns:
                for q, g in pairs.groupby("query_id"):
                    verified[int(q)] = np.sort(g["doc_id"].to_numpy(np.int64))
    return _score_verified(pool, qids, texts, ks, verified, id_col)
