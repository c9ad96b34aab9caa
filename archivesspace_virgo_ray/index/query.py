"""BM25 top-k query engine over the segment store.

Replaces the reference's Solr query path (SolrHelper.getRecordsForQuery,
SolrHelper.java:39-80) with one long-lived in-process searcher per index
(``LocalSearcher``, cached as ``QueryPool``): plan a query batch once
(global df/stats lookup) → one term-major pass per doc shard over the whole
batch → merge per-shard heaps → final (score desc, doc_id asc) top-k.

The term-major pass (``ShardScorer.score_batch``; term-at-a-time with an
accumulator array, Turtle & Flood 1995), per shard and batch, in chunks of
queries whose postings and accumulator cells stay within ``_ACC_CELLS``
(``_chunks``; one chunk for a small shard's whole batch):

1. decode: the chunk's distinct (bucket, term) pairs, NOT terms included,
   with one gathered ``postings.decode_segment`` call per live segment
   (``ShardScorer.read``);
2. map and mask: segment ordinals map to a shard-dense doc index (the
   sorted union of the shard's doc maps) and tombstoned postings drop
   through a per-segment live bitmap, both built once per scorer;
3. accumulate: contributions laid out query-major, canonical term order
   within a query, summed by one ``np.bincount`` into a (queries × docs)
   array, its columns the shard's docs or, for a large or sparse chunk,
   only the docs the chunk touches; a second one counts each cell's
   matched terms when ``require_all`` or mm needs it;
4. select: per query the matches at or above a ``np.partition`` threshold
   (its kth best), then one stable sort; dense order is doc-id order, so
   ties break by doc id ascending.

Why it is exact (bit-identical to ``oracle.OracleIndex.score_query``):
nothing is pruned, every matching doc gets every contribution, and
``bincount`` adds in array order starting from 0.0, so a doc's sum is built
in the oracle's ``+=`` order (canonical: descending global upper bound, tie
ascending term) from the same float expression (``_contrib``). Filters,
NOT, ``require_all``/mm and cursors only remove cells; none changes a sum.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.tokenize import stable_hash_strings, tokenize_text
from ..oracle import B, K1, bm25_idf, term_upper_bound
from .postings import _ranges, _starts, decode_posting_list, decode_segment
from .segments import (
    GLOBAL,
    _committed_markers,
    _markers_of,
    column_numpy,
    column_strings,
    committed_gens,
    folded_gens,
    list_segment_generations,
    live_segments,
    load_tombstone_thresholds,
    masked_rows,
    newest_gen,
    numpy_table,
    open_segment,
    read_build_id,
    read_marker,
)


# terms whose bucket a planning store remembers (``_bucket_of``)
_BUCKET_MEMO = 1 << 16


@dataclass
class TermPlan:
    term: str
    bucket: int
    idf: float
    ub: float


class TermStatsStore:
    """Global per-term stats (df, max_tf, min_dl) and corpus stats of ONE
    commit: marker ``at`` (the newest when None) names both.

    Buckets load lazily from the term-stats version the marker names. The
    reap rule keeps the versions of the two newest markers, so a store held
    across two later commits may find its version gone: it then raises
    ``_StaleIndexRead`` and its owner (a pool, a ``LocalSearcher``) reopens
    whole at the newest marker — a plan never mixes two commits' df and
    stats, and never reads a missing bucket as an empty one."""

    def __init__(self, index_dir: str, at: int | None = None):
        self.index_dir = index_dir
        self.marker = newest_gen(index_dir) if at is None else at
        m = read_marker(index_dir, self.marker)
        self.stats = m["stats"]
        self._ts_dir = os.path.join(index_dir, GLOBAL, m["termstats"])
        self._buckets: dict[int, dict[str, tuple[int, int, int]]] = {}
        self._term_bucket: dict[str, int] = {}  # see _bucket_of
        self._vocab: Vocabulary | None = None  # see vocabulary

    def qtext(self, text: str) -> str:
        """Apply the index's recorded analyzer to QUERY text (Solr applies
        the schema's analysis chain at query time; so does this) — user text
        tokenizes exactly like the build did, e.g. 'keyAgg' finds the split
        parts on an analyzer='ident' index."""
        from ..functions.tokenize import apply_analyzer

        return apply_analyzer(self.stats.get("analyzer", "plain"), text)

    def _load_bucket(
        self, bucket: int
    ) -> dict[str, tuple[int, int, int, int]]:
        """term -> (df, max_tf, min_dl, cf). cf rides along for the
        LM-Dirichlet planner; BM25 planning ignores it. A bucket no term
        hashes to has no dir; a reaped version (renamed away before it is
        removed, so a path read fails whole) raises ``_StaleIndexRead``."""
        if bucket not in self._buckets:
            path = os.path.join(self._ts_dir, f"bucket={bucket}")
            d: dict[str, tuple[int, int, int, int]] = {}
            try:
                t = _read_dir(path, ["term", "df", "max_tf", "min_dl", "cf"])
            except (OSError, ValueError):
                if not os.path.isdir(self._ts_dir):
                    raise _StaleIndexRead(self.index_dir) from None
                if os.path.exists(path):
                    raise
                t = None
            if t is not None:
                d = dict(zip(column_strings(t["term"]), zip(*(
                    column_numpy(t[c]).tolist()
                    for c in ("df", "max_tf", "min_dl", "cf")))))
            self._buckets[bucket] = d
        return self._buckets[bucket]

    @property
    def _avgdl(self) -> float:
        return self.stats["avgdl"]

    def _analyze(self, text: str) -> list[str]:
        """The query's distinct terms, sorted, under the index's analyzer."""
        return sorted(set(tokenize_text(self.qtext(text))))

    def _bucket_of(self, terms: list[str]) -> list[int]:
        """Each term's termstats/segment bucket in this index: one hash
        call for the terms this store has not routed yet (memoised, at
        most ``_BUCKET_MEMO`` terms)."""
        memo = self._term_bucket
        new = [t for t in dict.fromkeys(terms) if t not in memo]
        if new:
            if len(memo) + len(new) > _BUCKET_MEMO:
                memo.clear()
            n_buckets = np.uint64(self.stats["n_buckets"])
            memo.update(zip(new, (stable_hash_strings(new) % n_buckets)
                            .astype(int).tolist()))
        return [memo[t] for t in terms]

    def _term_stats(self, terms: list[str], buckets: list[int]) -> list:
        """Per term (df, max_tf, min_dl, cf), or None if absent."""
        return [self._load_bucket(b).get(t) for t, b in zip(terms, buckets)]

    def _term_plans(self, terms: list[str], mu: float | None = None
                    ) -> dict[str, TermPlan]:
        """term → TermPlan of every indexed one of ``terms`` (one hash
        call for all of them; see ``_plan_terms``)."""
        buckets = self._bucket_of(terms)
        st = self.stats
        return _plan_terms(terms, buckets, self._term_stats(terms, buckets),
                           st["n_docs"], st["avgdl"], st["total_len"], mu)

    def _plan(self, terms: list[str], mu: float | None = None
              ) -> list[TermPlan]:
        """Canonical-order plans of analysed ``terms``."""
        return _canonical(self._term_plans(terms, mu).values())

    def plan_query(self, text: str) -> list[TermPlan]:
        """Tokenize + canonical-order term plans (missing terms dropped)."""
        return self._plan(self._analyze(text))

    def vocabulary(self) -> Vocabulary:
        """Every term of this store's term-stats version with its df, read
        whole by the first term-dictionary lookup (fuzzy, prefix, regex,
        spellcheck) and kept; planning never reads it. A reaped version
        raises ``_StaleIndexRead``, as in ``_load_bucket``."""
        if self._vocab is None:
            ts = self._ts_dir
            try:
                parts = [_read_dir(os.path.join(ts, b), ["term", "df"])
                         for b in sorted(os.listdir(ts))
                         if b.startswith("bucket=")]
            except (OSError, ValueError):
                if not os.path.isdir(ts):
                    raise _StaleIndexRead(self.index_dir) from None
                raise
            self._vocab = Vocabulary(parts)
        return self._vocab


def _read_dir(path: str, columns: list[str]) -> pa.Table:
    """``columns`` of every parquet file in dir ``path`` (a term-stats
    bucket), through ``ParquetFile``: ``pq.read_table`` imports
    ``pyarrow.dataset`` and runs its discovery, and a cold read of four
    buckets took 38 ms that way against 3 ms."""
    return pa.concat_tables(
        pq.ParquetFile(os.path.join(path, f)).read(columns=columns)
        for f in sorted(os.listdir(path)) if f.endswith(".parquet"))


class Vocabulary:
    """The term dictionary of one term-stats version: ``terms`` in
    ascending order (code point order, as Python compares str), their
    ``df`` and their lengths. Each lookup cuts its matches by a total
    order, so the same vocabulary always expands to the same terms:

    - ``ranked``: (df desc, term asc), the top-terms rewrite of prefix
      and regexp queries and the Solr terms component;
    - ``near``: (edit distance asc, df desc, term asc), fuzzy queries and
      spellcheck."""

    def __init__(self, parts: list[pa.Table]):
        import pyarrow.compute as pc

        terms = pa.chunked_array(
            [c for p in parts for c in p["term"].cast(pa.string()).chunks],
            pa.string())
        order = pc.sort_indices(terms)
        terms = terms.take(order)
        self.terms = np.array(column_strings(terms), dtype=object)
        self.df = (np.concatenate([column_numpy(p["df"]) for p in parts])
                   .astype(np.int64)[column_numpy(order)]
                   if parts else np.empty(0, np.int64))
        self.lengths = column_numpy(pc.utf8_length(terms)).astype(np.int64)

    def prefixed(self, prefix: str) -> np.ndarray:
        """Rows of the terms that start with ``prefix``: one sorted range,
        [prefix, prefix with its last character bumped)."""
        hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        lo, hi = np.searchsorted(self.terms, [prefix, hi])
        return np.arange(lo, hi)

    def ranked(self, rows: np.ndarray, n: int) -> np.ndarray:
        """The first ``n`` of ascending ``rows`` by (df desc, term asc)."""
        rows = np.asarray(rows, dtype=np.int64)
        return rows[np.argsort(-self.df[rows], kind="stable")[:n]]

    def near(self, word: str, d: int, n: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """(rows, edit distances) of the first ``n`` terms within ``d``
        edits of ``word`` by (distance asc, df desc, term asc). Only terms
        in the length band |len(term) - len(word)| <= d reach
        ``fuzzy.levenshtein``."""
        from .fuzzy import levenshtein

        rows = np.flatnonzero(np.abs(self.lengths - len(word)) <= d)
        dist = np.fromiter((levenshtein(word, t) for t in self.terms[rows]),
                           dtype=np.int64, count=len(rows))
        rows, dist = rows[dist <= d], dist[dist <= d]
        cut = np.lexsort((rows, -self.df[rows], dist))[:n]
        return rows[cut], dist[cut]


def _contrib(idf, tfs, dls, avgdl: float, mu: float | None = None):
    """Per-posting contribution of one term, float64: BM25 (``mu`` None) or
    Lucene LMDirichletSimilarity, where ``idf`` carries the LM rate
    ``total_len / (mu * cf)`` and the score is clamped at 0. The same
    expression on a block's or a term's (max_tf, min_dl) is its upper
    bound, since both rise in tf and fall in dl."""
    tfs = np.asarray(tfs, dtype=np.float64)
    dls = np.asarray(dls, dtype=np.float64)
    if mu is not None:
        return np.maximum(0.0, np.log(1.0 + tfs * idf) + np.log(mu / (dls + mu)))
    # expression shape MUST mirror oracle.OracleIndex.score_query exactly
    return idf * tfs * (K1 + 1.0) / (tfs + K1 * (1.0 - B + B * dls / avgdl))


def _plan_terms(terms: list[str], buckets: list[int], stats: list,
                n_docs: int, avgdl: float, total_len: int,
                mu: float | None = None) -> dict[str, TermPlan]:
    """The one term planner: per-term ``stats`` (df, max_tf, min_dl, cf) or
    None (absent, dropped) → term → TermPlan. BM25 plans carry idf and the
    oracle's ``term_upper_bound``; LM-Dirichlet(``mu``) plans carry the
    rate in the ``idf`` slot and ``_contrib`` on (max_tf, min_dl) as the
    bound, the key of the canonical order (``_canonical``). The index's own
    stats, or the merged global ones of a federated search."""
    plans = {}
    for term, bucket, st in zip(terms, buckets, stats):
        if st is None:
            continue
        df, max_tf, min_dl, cf = st
        if mu is None:
            idf = bm25_idf(df, n_docs)
            ub = term_upper_bound(idf, max_tf, min_dl, avgdl)
        else:
            idf = total_len / (mu * cf)
            ub = float(_contrib(idf, max_tf, min_dl, avgdl, mu))
        plans[term] = TermPlan(term, int(bucket), idf, ub)
    return plans


def _canonical(plans) -> list[TermPlan]:
    """``plans`` in canonical order: desc upper bound, tie asc term."""
    return sorted(plans, key=lambda p: (-p.ub, p.term))


class QueryPlan(NamedTuple):
    """One planned query of a ``BatchPlan``: ``terms`` in canonical order,
    ``n_terms`` distinct analysed query terms (``require_all`` needs every
    one), ``neg`` the NOT clause's term plans (Solr ``a -b``),
    ``min_match`` > 1 the edismax mm, ``cursor`` a ``(score, doc_id, dp)``
    search-after mark. Field 0 is k, the shape ``_merge_topk_parts``
    reads."""

    k: int
    terms: list[TermPlan]
    n_terms: int
    neg: list[TermPlan] = ()
    min_match: int = 0
    cursor: tuple[float, int, int] | None = None


@dataclass
class BatchPlan:
    """What ``ShardWorker.score`` executes: the planned queries (those with
    at least one known term) and the similarity they were planned for —
    BM25 at ``avgdl`` (the index's own, or the global one of a federated
    search) when ``mu`` is None, else LM-Dirichlet(``mu``)."""

    queries: dict[int, QueryPlan]
    avgdl: float | None = None
    mu: float | None = None


def query_ids(queries: pa.Table) -> list[int]:
    """``queries``' ``query_id`` column as ints. A repeated id raises
    ValueError naming it: answers are keyed by query id, so a second row
    with the same id would silently take the place of the first."""
    qids = [int(q) for q in queries["query_id"].to_pylist()]
    if len(set(qids)) < len(qids):
        from collections import Counter

        dup = next(q for q, n in Counter(qids).items() if n > 1)
        raise ValueError(
            f"query_id {dup} repeats in the query table: every row needs "
            "its own query_id")
    return qids


def _plan_batch(planner, queries: pa.Table, mu: float | None = None,
                cursors: bool = True) -> BatchPlan:
    """The only reader of a query table's columns: ``query_id``, ``text``,
    ``k`` and the optional ``not_text`` (NOT clause), ``min_match``
    (edismax mm; null/0/1 → none) and ``cursor_score``/``cursor_doc``
    (Solr cursorMark; null score → none). ``planner`` is a
    ``TermStatsStore`` or a ``FederatedSearcher``: ``_analyze``,
    ``_term_plans`` and ``_avgdl``; the batch's vocabulary is planned in
    one ``_term_plans`` call (NOT terms, planned as BM25, in a second one
    under LM-Dirichlet). ``cursors=False`` rejects cursor columns
    (grouped and boosted orders are not the cursor's order)."""
    cols = set(queries.column_names)
    if not cursors and cols & {"cursor_score", "cursor_doc"}:
        raise ValueError(
            "grouped and boosted top-k take no cursor: their order is not "
            "the cursor's (round(score, 6), doc_id) order")
    none = [None] * queries.num_rows

    def col(name: str) -> list:
        return queries[name].to_pylist() if name in cols else none

    qids = query_ids(queries)
    terms = [planner._analyze(text) for text in col("text")]
    negs = [planner._analyze(nt) if nt else [] for nt in col("not_text")]
    vocab = set().union(*terms)
    neg_vocab = set().union(*negs)
    if mu is None:
        pos = neg = planner._term_plans(sorted(vocab | neg_vocab))
    else:
        pos = planner._term_plans(sorted(vocab), mu)
        neg = planner._term_plans(sorted(neg_vocab)) if neg_vocab else {}
    planned: dict[int, QueryPlan] = {}
    for qid, k, ts, ns, mm, cs, cd in zip(
            qids, col("k"), terms, negs, col("min_match"),
            col("cursor_score"), col("cursor_doc")):
        plans = _canonical(pos[t] for t in ts if t in pos)
        if not plans:
            continue
        planned[qid] = QueryPlan(
            int(k), plans, len(ts),
            _canonical(neg[t] for t in ns if t in neg) if ns else [],
            int(mm) if mm is not None and int(mm) > 1 else 0,
            (float(cs), int(cd), 6) if cs is not None else None)
    return BatchPlan(planned, planner._avgdl, mu)


def _expression_key(where) -> bytes:
    """CONTENT-exact cache key bytes for a pyarrow filter expression.
    Never ``repr``/``str``: pyarrow elides long literal lists ("...") so
    two distinct doc-id whitelists sharing head and tail alias to one key
    — the soak caught a stale whitelist served from exactly that
    collision. ``to_substrait`` needs the real schema, so pickle (exact,
    and these keys never leave the process) is the canonical form."""
    import pickle

    try:
        return pickle.dumps(where)
    except Exception:  # exotic expression: fall back, prefix to disambiguate
        return b"repr:" + repr(where).encode()


class _StaleIndexRead(Exception):
    """Later commits reaped part of the state a reader's pinned marker
    names — a compaction's folded segment dirs, or (the reap rule) its
    term-stats version: reopen whole at the newest marker."""


# opens a reader tries while commits keep reaping the state it pinned
_REPIN_ATTEMPTS = 20


def _repin_attempts(index_dir: str):
    """Loop over this to retry an open that raised ``_StaleIndexRead``:
    yields ``_REPIN_ATTEMPTS`` times, then raises instead of letting a
    reader spin without end behind a writer that never pauses."""
    yield from range(_REPIN_ATTEMPTS)
    raise RuntimeError(
        f"{index_dir}: commits reaped the state a reader pinned "
        f"{_REPIN_ATTEMPTS} times in a row; retry once writes pause")


# Accumulator cells (queries × docs) and postings a chunk of a batch pass
# holds at most, unless it is one query with more (``_chunks``). Transient
# bytes per cell: the float64 sums (8), the int64 hit counts (8, freed once
# the bool match mask (1) is built), a float64 copy of the rows that need a
# top-k threshold (8) and bool temporaries (1-2): at most about 19 B. Per
# posting: about 100 B while ``decode_segment`` runs, then about 56 B (doc
# column, tf, dl and contribution of the read, cell and gather index), 24 B
# more while a compacted doc space is sorted out. So ≈30 MB at 2**18
# (2**18 scored batches faster than 2**17 or 2**19 at 1k, 20k and 60k docs).
_ACC_CELLS = 1 << 18
# a chunk of more than _COMPACT_MIN cells compacts its doc space when the
# shard's docs outnumber its postings _SPARSE times: zeroing and scanning a
# cell costs 1-2 ns, sorting a posting out about 40 ns and ``np.unique``
# about 25 µs whatever its size
_SPARSE = 16
_COMPACT_MIN = 1 << 14
# matches a chunk sorts without a top-k threshold first
_SORT_MAX = 4096


class ShardScorer:
    """Scores queries against ONE doc shard (all its term buckets, every
    live segment generation, minus tombstoned docs)."""

    def __init__(self, index_dir: str, shard: int,
                 buckets: list[int] | None = None,
                 reader_cache: dict | None = None, at: int | None = None):
        # ``reader_cache``: {(build id, segment name): reader} from a
        # previous scorer over the same shard — within one build of an
        # index a segment name is written once and never rewritten, so a
        # matching key can reuse the already-mmapped reader. This is the
        # Lucene IndexReader.reopen economics: a refresh after a small
        # delta add only opens the new generation's dirs.
        #
        # The scorer holds the state of ONE marker, ``at`` (the newest when
        # None): its stats, its tombstones and the segments live under the
        # markers up to it. Once constructed it is immune to concurrent
        # maintenance: term dicts are in memory and postings are mmapped,
        # so a compaction rmtree'ing a folded dir leaves our open inodes
        # intact (POSIX). During construction a compaction committed after
        # ``at`` may reap a dir ``at`` still shows: that raises
        # ``_StaleIndexRead`` and the owner re-pins; a scorer of the newest
        # marker (``at`` None) re-pins itself.
        self._reader_cache_in = reader_cache or {}
        for _ in _repin_attempts(index_dir):
            try:
                return self._load(index_dir, shard, buckets,
                                  newest_gen(index_dir) if at is None else at)
            except _StaleIndexRead:
                if at is not None:
                    raise

    def _load(self, index_dir: str, shard: int, buckets: list[int] | None,
              at: int) -> None:
        markers = _committed_markers(index_dir, at)
        self.marker = at
        self.stats = read_marker(index_dir, self.marker)["stats"]
        self.avgdl = self.stats["avgdl"]
        # generation-thresholded tombstones: a posting from generation g is
        # masked iff g < masked_below_gen(doc) — covers plain deletes AND
        # replaced-away document versions (update.add_documents "replace")
        self.tomb_ids, self.tomb_thr = load_tombstone_thresholds(
            index_dir, markers=markers)
        self._gen_masks: dict[int, np.ndarray] = {}
        build = read_build_id(index_dir)

        def _open(n: str):
            r = self._reader_cache_in.get((build, n))
            if r is None:
                try:
                    r = open_segment(index_dir, n)
                except FileNotFoundError as e:
                    # a compaction reaped the dir after committing
                    raise _StaleIndexRead(index_dir) from e
            self.reader_cache[(build, n)] = r
            return r

        # bucket -> [(mask gen, reader) per live generation]; a reader's
        # mask gen comes from the manifest it opened (a compaction
        # output's is max(source gens))
        self.reader_cache: dict = {}  # handed to the NEXT scorer on refresh
        self.readers: dict[int, list] = {}
        self._segs: dict[int, list] | None = None  # see _dense
        self.doc_ids = np.empty(0, np.int64)
        live = live_segments(index_dir, markers)
        for (s, b), names in live.items():
            if s == shard and (buckets is None or b in buckets):
                self.readers[b] = [(r.mask_gen, r) for r in map(_open, names)]
        # a compaction committed after ``at`` reaps the dirs it folded,
        # perhaps before the listing above: if one folded a generation
        # ``at`` shows live, that listing may lack its dirs
        later = _markers_of(index_dir, committed_gens(index_dir) - set(markers))
        if folded_gens(index_dir, later) & (
                ({0} | set(markers)) - folded_gens(index_dir, markers)):
            raise _StaleIndexRead(index_dir)

    def masked_for_gen(self, gen: int) -> np.ndarray | None:
        """Sorted doc ids whose postings are masked when read from a segment
        of this generation (cached per distinct gen)."""
        if not len(self.tomb_ids):
            return None
        if gen not in self._gen_masks:
            self._gen_masks[gen] = self.tomb_ids[self.tomb_thr > gen]
        m = self._gen_masks[gen]
        return m if len(m) else None

    def _dense(self) -> dict[int, list]:
        """bucket → per live generation (reader, ordinal → dense index, live
        bitmap over ordinals or None), built once per scorer on its first
        read. The dense index numbers ``self.doc_ids``, the sorted union of
        every live segment's doc map in this shard, so dense order is doc-id
        order; the live bitmap is False where a doc is tombstoned for the
        segment's mask generation (``masked_for_gen``). Held: 8 B per doc
        of each live segment, plus 1 B where tombstones apply."""
        if self._segs is None:
            maps = [r.doc_map for rs in self.readers.values() for _g, r in rs]
            ids = (np.unique(np.concatenate(maps)) if maps
                   else np.empty(0, np.int64))
            segs: dict[int, list] = {}
            for b, rs in self.readers.items():
                segs[b] = []
                for gen, r in rs:
                    m = self.masked_for_gen(gen)
                    live = None if m is None else ~np.isin(r.doc_map, m)
                    if live is not None and live.all():
                        live = None
                    segs[b].append((r, np.searchsorted(ids, r.doc_map), live))
            self.doc_ids, self._segs = ids, segs
        return self._segs

    def read(self, pairs: list[tuple[int, str]]):
        """The live postings of each ``(bucket, term)`` of ``pairs`` →
        (dense, tfs, dls, piece_pair, piece_len): flat arrays, ``dense``
        indexing ``self.doc_ids``, made of pieces in decode order, piece j
        holding ``piece_len[j]`` postings of pair ``piece_pair[j]``, one
        piece per live segment holding the pair's term. One
        ``decode_segment`` call per live segment decodes every pair's term
        it holds; tombstoned postings drop through the segment's live
        bitmap. A (term, doc) posting is live in exactly one generation, so
        a pair's pieces hold each doc at most once."""
        parts, piece_pair = [], []
        for reader, to_dense, live, pi, rows in self._segment_rows(pairs):
            ords, tfs, dls, df, _ = decode_segment(reader, rows, ordinals=True)
            if live is not None:
                keep = live[ords]
                df = np.add.reduceat(keep, _starts(df), dtype=np.int64)
                ords, tfs, dls = ords[keep], tfs[keep], dls[keep]
            parts.append((to_dense[ords], tfs, dls, df))
            piece_pair.extend(pi)
        e = np.empty(0, np.int64)
        dense, tfs, dls, piece_len = (np.concatenate(c) for c in zip(
            (e, e, e, e), *parts))
        return dense, tfs, dls, np.array(piece_pair, np.int64), piece_len

    def n_postings(self, pairs: list[tuple[int, str]]) -> np.ndarray:
        """Postings of each ``(bucket, term)`` of ``pairs`` in every live
        generation of its bucket, tombstoned ones included: what ``read``
        returns at most."""
        out = np.zeros(len(pairs), np.int64)
        for reader, _d, _l, pi, rows in self._segment_rows(pairs):
            out[list(pi)] += reader.term_cols["df"][rows]
        return out

    def _segment_rows(self, pairs: list[tuple[int, str]]):
        """Per live segment holding a term of ``pairs``: (reader, ordinal →
        dense index, live bitmap or None, indices into ``pairs``, the terms'
        rows in the segment)."""
        segs = self._dense()
        by_bucket: dict[int, list] = {}
        for i, (b, t) in enumerate(pairs):
            by_bucket.setdefault(b, []).append((i, t))
        for b, its in by_bucket.items():
            for reader, to_dense, live in segs.get(b, ()):
                found = [(i, r) for i, t in its
                         if (r := reader.term_row(t)) is not None]
                if found:
                    pi, rows = zip(*found)
                    yield reader, to_dense, live, pi, np.array(rows, np.int64)

    def term_docs(self, bucket: int, term: str) -> np.ndarray:
        """Sorted doc ids holding ``term`` in this shard: its live postings
        in every generation of ``bucket`` (``read``)."""
        dense = self.read([(bucket, term)])[0]
        return self.doc_ids[np.sort(dense)]

    def score_batch(self, plan: BatchPlan, allowed: np.ndarray | None = None,
                    require_all: bool = False, deadline: float | None = None,
                    k: int | None = None):
        """The term-major pass (module docstring) of every query of
        ``plan`` against this shard → ((query_id, doc_id, score) arrays of
        each query's exact shard top-k, score desc / doc asc, queries in
        plan order), the ids of the queries scored). ``k`` overrides every
        query's k (``_ALL`` keeps every match).

        ``allowed``: optional SORTED int64 doc-id whitelist (the facet/range
        filter of the reference's Solr queries, IndexRecords.java:124-132,
        :174). Like Solr filter queries, it restricts the result set but
        does NOT change df/avgdl — surviving scores are the unfiltered
        query's.
        ``require_all`` keeps docs holding all ``n_terms`` query terms
        (q.op=AND), a query's ``min_match`` docs holding at least that many
        (edismax mm), and its NOT terms block every doc holding one (Solr
        ``a -b``). A ``cursor`` (Solr cursorMark) keeps only docs STRICTLY
        after the mark in the (round(score, dp) desc, doc_id asc) order and
        selects in that order; returned scores stay unrounded. The plan's
        ``avgdl`` (None: this index's own; a federated search passes the
        global one) and ``mu`` (LM-Dirichlet, see ``_contrib``) pick the
        contribution. ``deadline`` (epoch seconds) is checked before each
        chunk (``_chunks``), not within one; the queries of chunks not run
        are not among the ids returned."""
        items = list(plan.queries.items())
        self._dense()
        ids = self.doc_ids
        n = len(ids)
        e = np.empty(0, np.int64)
        parts, done = [(e, e, np.empty(0, np.float64))], []
        ok_docs = None
        if allowed is not None and n:
            pos = np.minimum(np.searchsorted(ids, allowed), n - 1)
            ok_docs = np.zeros(n, dtype=bool)
            ok_docs[pos[ids[pos] == allowed]] = True
        if not items or n == 0 or (ok_docs is not None and not ok_docs.any()):
            return parts[0], [q for q, _ in items]
        avgdl = self.avgdl if plan.avgdl is None else plan.avgdl
        pairs = list(dict.fromkeys((t.bucket, t.term) for _q, qp in items
                                   for t in (*qp.terms, *qp.neg)))
        sizes = dict(zip(pairs, self.n_postings(pairs).tolist()))
        for chunk in _chunks(items, sizes, n):
            if deadline is not None and time.time() >= deadline:
                break
            parts.append(_score_chunk(
                self, chunk, ok_docs, avgdl, plan.mu, require_all, k))
            done.extend(q for q, _ in chunk)
        return tuple(np.concatenate(c) for c in zip(*parts)), done


def _chunks(items, sizes: dict, n: int):
    """``items`` (plan order) cut into the chunks ``_score_chunk`` runs:
    each as long as its postings (``sizes[(bucket, term)]`` of each
    query's positive and NOT terms) and (queries) × min(n, postings) stay
    within ``_ACC_CELLS``. A chunk whose doc space ``_score_chunk``
    compacts has at most as many columns as postings, so no chunk holds
    more than ``_ACC_CELLS`` cells or postings unless it is one query
    with more."""
    chunk, size = [], 0
    for item in items:
        p = sum(sizes[(t.bucket, t.term)]
                for t in (*item[1].terms, *item[1].neg))
        if chunk and max(size + p, (len(chunk) + 1) * min(n, size + p)
                         ) > _ACC_CELLS:
            yield chunk
            chunk, size = [], 0
        chunk.append(item)
        size += p
    if chunk:
        yield chunk


def _score_chunk(scorer: ShardScorer, chunk, ok_docs, avgdl: float,
                 mu: float | None, require_all: bool, k: int | None):
    """The batch pass (``ShardScorer.score_batch``) of one chunk of
    queries: its distinct (bucket, term, idf) slots and NOT terms read in
    one ``scorer.read``, then accumulated and selected. The accumulator's
    columns are the shard's docs ``scorer.doc_ids``, or only the docs the
    chunk's postings touch (sorted, so still doc-id order) when the
    shard's would pass ``_ACC_CELLS``, or ``_COMPACT_MIN`` and ``_SPARSE``
    times the postings."""
    slots: dict[tuple, int] = {}  # (bucket, term, idf) -> slot
    negs: dict[tuple, int] = {}  # (bucket, term) -> slot
    rs, ns = [], []  # per query term: (query row, slot)
    need, kk = [], []  # per query: hits a cell needs to match; its k
    cursors = {}
    for i, (_q, qp) in enumerate(chunk):
        for p in qp.terms:
            rs.append((i, slots.setdefault((p.bucket, p.term, p.idf),
                                           len(slots))))
        for p in qp.neg:
            ns.append((i, negs.setdefault((p.bucket, p.term), len(negs))))
        need.append(qp.n_terms if require_all else max(qp.min_match, 1))
        kk.append(max(0, qp.k if k is None else k))
        if qp.cursor is not None:
            cursors[i] = qp.cursor
    dense, tfs, dls, piece_pair, piece_len = scorer.read(
        [key[:2] for key in slots] + list(negs))
    if not len(dense):  # no term of these queries in this shard
        return dense, dense, np.empty(0, np.float64)
    # one contribution per decoded posting (NOT ones unused), the idf of
    # its piece's pair
    idf = np.array([key[2] for key in slots] + [0.0] * len(negs))
    contrib = _contrib(np.repeat(idf[piece_pair], piece_len), tfs, dls,
                       avgdl, mu)
    del tfs, dls
    # query-major, canonical term order within a query, a term's pieces
    # together: bincount adds in array order from 0.0, so every sum is
    # the oracle's; the NOT terms' pieces follow
    pieces: list[list[int]] = [[] for _ in range(len(slots) + len(negs))]
    for j, pair in enumerate(piece_pair.tolist()):
        pieces[pair].append(j)
    sel = [(i, j) for i, slot in rs for j in pieces[slot]]
    n_sel = len(sel)
    sel += [(i, j) for i, slot in ns for j in pieces[len(slots) + slot]]
    # pieces already in layout order (one query whose terms decoded in
    # canonical order) are used in place
    in_place = [j for _i, j in sel] == list(range(len(piece_len)))
    row, sel = np.array(sel, np.int64).reshape(-1, 2).T
    lens = piece_len[sel]
    g = slice(None) if in_place else _ranges(_starts(piece_len)[sel], lens)
    row = np.repeat(row, lens)
    n_pos = int(lens[:n_sel].sum())
    w = contrib[g][:n_pos]
    col = dense[g]
    ids = scorer.doc_ids
    c = len(chunk)
    n = len(ids)
    if c * n > _ACC_CELLS or c * n > max(_COMPACT_MIN, _SPARSE * len(col)):
        touched, col = np.unique(col, return_inverse=True)
        ids = ids[touched]
        ok_docs = None if ok_docs is None else ok_docs[touched]
        n = len(ids)
    cells = row * n + col
    cell, neg_cell = cells[:n_pos], cells[n_pos:]
    acc = np.bincount(cell, weights=w, minlength=c * n
                      ).astype(np.float64, copy=False)  # int if empty
    if max(need) == 1:
        ok = np.zeros(c * n, dtype=bool)
        ok[cell] = True
    else:
        # a doc holds one live posting per term: hits = matched terms
        ok = (np.bincount(cell, minlength=c * n).reshape(c, n)
              >= np.array(need)[:, None]).ravel()
    del cells, cell, w
    scores, ok2 = acc.reshape(c, n), ok.reshape(c, n)  # views
    if ok_docs is not None:
        ok2 &= ok_docs
    ok[neg_cell] = False
    for i, (cs, cd, dp) in cursors.items():
        r = np.round(scores[i], dp)
        ok2[i] &= (r < cs) | ((r == cs) & (ids > cd))
    kk = np.array(kk, np.int64)
    cells = np.flatnonzero(ok)
    if len(cells) > _SORT_MAX:
        # a row with more than k matches keeps those at or above its kth
        # best key (a cursor row's is rounded): one partition of those
        # rows, unmatched cells at -inf (few matches: the sort is cheaper)
        cut = np.flatnonzero((np.count_nonzero(ok2, axis=1) > kk) & (kk > 0))
        if len(cut):
            acc[~ok] = -np.inf
            sub = scores[cut]
            for j, i in enumerate(cut.tolist()):
                if i in cursors:
                    sub[j] = np.round(sub[j], cursors[i][2])
            kth = n - kk[cut]
            sub.partition(np.unique(kth), axis=1)
            thr = np.full(c, -np.inf)
            thr[cut] = sub[np.arange(len(cut)), kth]
            del sub
            for i, (_cs, _cd, dp) in cursors.items():
                ok2[i] &= np.round(scores[i], dp) >= thr[i]
                thr[i] = -np.inf
            ok2 &= scores >= thr[:, None]  # -inf keeps a row's matches
            cells = np.flatnonzero(ok)
    del ok, ok2
    qrow, docs = np.divmod(cells, n)
    s = acc[cells]
    key = s  # the selection order: a cursor row's is rounded
    if cursors:
        key = s.copy()
        for i, (_cs, _cd, dp) in cursors.items():
            m = qrow == i
            key[m] = np.round(s[m], dp)
    # stable: equal keys keep dense (= doc id) order; then each row's
    # first k
    order = np.lexsort((-key, qrow))
    ranked = qrow[order]
    keep = order[np.arange(len(ranked)) - np.searchsorted(ranked, ranked)
                 < kk[ranked]]
    qids = np.array([q for q, _ in chunk], np.int64)[qrow[keep]]
    return qids, ids[docs[keep]], s[keep]


class ShardWorker:
    """Query-side state for a SUBSET of doc shards, loaded ONCE (T5) at one
    marker: segment readers + tombstones per shard, and — lazily, only when
    a facet/filter query needs it — that shard's column-pruned slice of the
    forward ``_docs`` table. ``LocalSearcher`` and ``QueryPool`` hold one
    over every shard, in the calling process: the always-warm analog of
    the reference's long-lived Solr searcher (SolrHelper.java:39-80).
    Building one and scoring BM25 imports neither Ray Data nor pandas.

    Everything corpus-scale (posting decode, boolean set ops, facet
    counting, predicate evaluation over ``_docs``) happens HERE; its
    callers only ever receive per-shard top-k heaps, facet count partials,
    or final match-id arrays."""

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 at: int | None = None):
        self.index_dir = index_dir
        all_shards = sorted({s for s, _ in list_segment_generations(index_dir)})
        self.shards = sorted(shards) if shards is not None else all_shards
        self.scorers: dict[int, ShardScorer] = {}
        self.refresh(at)

    def refresh(self, at: int | None = None) -> int:
        """(Re)load every shard at marker ``at`` (the newest when None),
        reusing unchanged segment readers (keyed by build id + name) — the
        Lucene ``IndexReader.reopen`` analog. After a small delta add only
        the new generation's dirs are opened; after a compaction its output
        dirs. Superseded readers drop out of the cache and release their
        mmaps with the old scorer. A compaction that reaped part of
        ``at``'s state re-pins the load at the newest marker. Returns the
        marker loaded."""
        for _ in _repin_attempts(self.index_dir):
            marker = newest_gen(self.index_dir) if at is None else at
            try:
                scorers = {
                    s: ShardScorer(self.index_dir, s, at=marker,
                                   reader_cache=old.reader_cache
                                   if (old := self.scorers.get(s)) else None)
                    for s in self.shards}
                break
            except _StaleIndexRead:
                at = None
        self.marker, self.scorers = marker, scorers
        self.stats = read_marker(self.index_dir, marker)["stats"]
        self._docs_cache: dict = {}   # (shard, cols) -> pa.Table slice
        self._filter_cache: dict = {}  # (shard, _expression_key(where)) -> ids
        return marker

    def _docs_slice(self, shard: int, columns: tuple[str, ...]) -> pa.Table:
        """Column-pruned, shard-predicate-pushdown read of _docs (cached)."""
        import pyarrow.dataset as pads

        key = (shard, columns)
        if key not in self._docs_cache:
            d = pads.dataset(os.path.join(self.index_dir, "_docs"))
            self._docs_cache[key] = d.to_table(
                filter=pads.field("shard") == shard, columns=list(columns)
            )
        return self._docs_cache[key]

    def _latest_live_docs(self, shard: int, extra_cols: tuple[str, ...] = ()) -> pd.DataFrame:
        """This shard's forward rows resolved to each doc's CURRENT version
        at the pinned marker (its max-gen row up to the marker, under
        replace semantics), minus docs whose current version is
        tombstone-masked."""
        df = self._docs_slice(
            shard, ("doc_id", "gen") + tuple(extra_cols)).to_pandas()
        df = df[df["gen"] <= self.marker].sort_values(
            "gen", kind="mergesort").drop_duplicates("doc_id", keep="last")
        sc = self.scorers[shard]
        df = df[~masked_rows(df["doc_id"], df["gen"], sc.tomb_ids, sc.tomb_thr)]
        return df.reset_index(drop=True)

    def _filter_ids(self, shard: int, where) -> np.ndarray:
        """Sorted doc ids of THIS shard whose CURRENT version passes a
        pyarrow expression (old generations of a replaced doc don't count)."""
        import pandas as pd
        import pyarrow.dataset as pads

        key = (shard, _expression_key(where))
        if key not in self._filter_cache:
            d = pads.dataset(os.path.join(self.index_dir, "_docs"))
            t = d.to_table(
                filter=(pads.field("shard") == shard)
                & (pads.field("gen") <= self.marker) & where,
                columns=["doc_id", "gen"],
            )
            hits = t.to_pandas().groupby("doc_id")["gen"].max()
            latest = self._latest_live_docs(shard)
            lat = pd.Series(latest["gen"].to_numpy(np.int64),
                            index=latest["doc_id"].to_numpy(np.int64))
            # a doc passes iff its LATEST live row matched the predicate
            common = hits.index.intersection(lat.index)
            ids = common[hits.loc[common] >= lat.loc[common]].to_numpy(np.int64)
            if len(self._filter_cache) > 64:
                self._filter_cache.clear()
            self._filter_cache[key] = np.sort(np.unique(ids))
        return self._filter_cache[key]

    def _match_ids(
        self, shard: int, plans: list[TermPlan], mode: str, n_query_terms: int
    ) -> np.ndarray:
        """Shard-local boolean retrieval (sorted ids). Correct per shard
        because a doc's postings live wholly inside its shard; masked
        generations (deletes / replaced-away versions) are excluded
        per-reader, so a replaced doc matches only via its live version."""
        scorer = self.scorers[shard]
        sets = [scorer.term_docs(p.bucket, p.term) for p in plans]
        if mode == "and":
            if len(plans) < n_query_terms or not sets:
                return np.empty(0, np.int64)  # an absent term empties an AND
            out = sets[0]
            for s_ in sets[1:]:
                out = out[np.isin(out, s_, assume_unique=True)]
        elif mode == "atleast":
            # Solr edismax mm: docs matching >= n_query_terms of the query's
            # clauses. Each set is per-term-unique, so per-doc occurrence
            # counts across the concatenation = distinct matched terms.
            # Absent terms contribute no set, so mm > len(plans) empties.
            if n_query_terms > len(plans) or not sets:
                return np.empty(0, np.int64)
            ids, counts = np.unique(np.concatenate(sets), return_counts=True)
            out = ids[counts >= n_query_terms]
        else:
            out = (
                np.unique(np.concatenate(sets)) if sets else np.empty(0, np.int64)
            )
        return out

    def match(self, plans: list[TermPlan], mode: str, n_query_terms: int) -> np.ndarray:
        parts = [self._match_ids(s, plans, mode, n_query_terms) for s in self.shards]
        return (
            np.concatenate(parts) if parts else np.empty(0, np.int64)
        )

    def _term_docs_positions(
        self, shard: int, plan: TermPlan, within: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One term's merged (docs, tfs, flat positions) in one shard —
        doc-sorted across generations, tombstone-masked (masked postings drop
        their position slices too, keeping the flat stream aligned).

        ``within``: optional SORTED doc-id whitelist — only blocks whose
        doc range intersects it are decoded (the skip-table analog of
        block-max WAND for phrase terms: a head term riding along in a
        phrase never pays a full posting decode once the rarest term has
        bounded the candidates)."""
        from .postings import decode_positions

        scorer = self.scorers[shard]
        d_chunks, t_chunks, p_chunks = [], [], []
        for gen, reader in scorer.readers.get(plan.bucket, ()):
            e = reader.term_entry(plan.term)
            if e is None or "pos_payload" not in e:
                continue
            bmask = None
            if within is not None:
                btab = e["block_table"]
                last = reader.doc_map[btab["last_ord"]]
                first = np.empty_like(last)
                if len(last):
                    first[0] = 0
                    first[1:] = last[:-1] + 1
                lo = np.searchsorted(within, first, side="left")
                hi = np.searchsorted(within, last, side="right")
                bmask = hi > lo
                if not bmask.any():
                    continue
            docs, tfs, _dls = decode_posting_list(
                e["payload"], e["block_table"], bmask
            )
            pos = decode_positions(
                e["pos_payload"], e["block_table"]["pos_bytes"], tfs, bmask
            )
            m = scorer.masked_for_gen(gen)
            if m is not None:
                keep = ~np.isin(docs, m, assume_unique=True)
                pos = pos[np.repeat(keep, tfs)]
                docs, tfs = docs[keep], tfs[keep]
            if len(docs):
                d_chunks.append(docs)
                t_chunks.append(tfs)
                p_chunks.append(pos)
        if not d_chunks:
            e_ = np.empty(0, np.int64)
            return e_, e_.copy(), e_.copy()
        docs = np.concatenate(d_chunks)
        tfs = np.concatenate(t_chunks)
        pos = np.concatenate(p_chunks)
        if len(d_chunks) > 1:
            # a (term, doc) posting is live in exactly ONE generation, so a
            # doc-sort of the concatenation is a true merge; the flat
            # position stream is re-gathered per posting (segmented take)
            order = np.argsort(docs, kind="stable")
            starts = np.zeros(len(tfs), np.int64)
            np.cumsum(tfs[:-1], out=starts[1:])
            tfs_o = tfs[order]
            new_starts = np.zeros(len(tfs_o), np.int64)
            np.cumsum(tfs_o[:-1], out=new_starts[1:])
            total = int(tfs.sum())
            inner = np.arange(total, dtype=np.int64) - np.repeat(new_starts, tfs_o)
            pos = pos[np.repeat(starts[order], tfs_o) + inner]
            docs, tfs = docs[order], tfs_o
        return docs, tfs, pos

    def phrase_ids(
        self, queries: dict[int, tuple[list[TermPlan], list[str], int]]
    ) -> pa.Table:
        """Positional phrase / ordered-proximity matching over this worker's
        shards — no raw-text access. ``queries``: qid → (plans for the
        phrase's DISTINCT terms, phrase tokens in order, slop).

        Per (query, shard): decode each distinct term's postings+positions
        once, intersect doc sets (conjunctive bound), then a vectorized
        feasible-set sweep over ``candidate_ordinal * 2^32 + position`` keys:
        slot i+1 keeps a position q iff some kept slot-i position p of the
        same doc satisfies ``p < q <= p + slop + 1`` (slop=0 ⇒ exact
        adjacency — the same language as ``phrase.slop_pattern``). No
        per-doc Python loop; in-doc positions must fit in 32 bits (>4B-token
        docs don't exist)."""
        out_q: list[int] = []
        out_d: list[np.ndarray] = []
        for qid, spec in queries.items():
            # (plans, tokens, slop) or (plans, tokens, slop, max_start):
            # max_start bounds the FIRST token's 0-based position — the
            # Lucene SpanFirst predicate (span must begin within the first
            # max_start tokens)
            plans, tokens, slop = spec[0], spec[1], spec[2]
            max_start = spec[3] if len(spec) > 3 else None
            for s in self.shards:
                cand, S = self._occurrence_keys(s, plans, tokens, slop,
                                                max_start)
                if cand is not None and len(S):
                    ids = cand[np.unique(S >> np.int64(32))]
                    out_q.extend([int(qid)] * len(ids))
                    out_d.append(ids)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "doc_id": pa.array(
                    np.concatenate(out_d) if out_d else np.empty(0, np.int64)
                ),
            }
        )

    def _occurrence_keys(self, s, plans, tokens, slop, max_start=None):
        """One shard's phrase-occurrence sweep (the shared core of
        ``phrase_ids`` / ``span_not_ids``): returns (cand, S) where ``cand``
        is the sorted conjunctive candidate doc-id array and ``S`` the
        ascending ``candidate_ordinal * 2^32 + position`` keys of the FINAL
        slot of every surviving occurrence; (None, empty) when the shard
        cannot match."""
        K = np.int64(1) << np.int64(32)
        MASK32 = np.int64(0xFFFFFFFF)
        empty = np.empty(0, np.int64)
        by_term = {p.term: p for p in plans}
        if not tokens or any(t not in by_term for t in tokens):
            return None, empty  # a term absent from the vocab empties the AND
        # rarest term first (highest idf = lowest df): it bounds the
        # candidate set, and every later term decodes only the blocks
        # whose doc range intersects the running candidates — a head
        # term in a phrase never pays a full posting decode
        distinct = sorted(
            dict.fromkeys(tokens), key=lambda t: (-by_term[t].idf, t)
        )
        w = np.int64(int(slop) + 1)
        postings: dict[str, tuple] = {}
        cand: np.ndarray | None = None
        for t in distinct:
            dtp = self._term_docs_positions(s, by_term[t], within=cand)
            if len(dtp[0]) == 0:
                return None, empty
            postings[t] = dtp
            cand = (
                dtp[0] if cand is None
                else np.intersect1d(cand, dtp[0], assume_unique=True)
            )
            if len(cand) == 0:
                return None, empty

        def slot_keys(t: str) -> np.ndarray:
            docs, tfs, pos = postings[t]
            pidx = np.searchsorted(cand, docs)
            ok = pidx < len(cand)
            hit = np.zeros(len(docs), dtype=bool)
            hit[ok] = cand[pidx[ok]] == docs[ok]
            flat_ord = np.repeat(np.where(hit, pidx, -1), tfs)
            kept = flat_ord >= 0
            return flat_ord[kept] * K + pos[kept]

        S = slot_keys(tokens[0])
        if max_start is not None:
            S = S[(S & MASK32) < np.int64(max_start)]
        for t in tokens[1:]:
            if len(S) == 0:
                break
            Q = slot_keys(t)
            hi = np.searchsorted(S, Q, side="left")
            feas = hi > 0
            prev = S[np.maximum(hi - 1, 0)]
            feas &= (prev >> np.int64(32)) == (Q >> np.int64(32))
            feas &= (prev & MASK32) >= (Q & MASK32) - w
            S = Q[feas]
        return cand, S

    def span_not_ids(
        self, queries: dict[int, tuple]
    ) -> pa.Table:
        """Lucene SpanNotQuery over this worker's shards: docs with at least
        one EXACT-phrase occurrence not within ``dist`` tokens of any
        occurrence of the exclude term. ``queries``: qid → (plans, tokens,
        excl_plan_or_None, dist). excl_plan None (term not in vocabulary)
        means nothing is excluded. Exclusion is per-OCCURRENCE (a doc with
        one excluded and one clean occurrence still matches) — the Lucene
        include/exclude span semantics with pre = post = dist."""
        K = np.int64(1) << np.int64(32)
        MASK32 = np.int64(0xFFFFFFFF)
        out_q: list[int] = []
        out_d: list[np.ndarray] = []
        for qid, spec in queries.items():
            plans, tokens, excl_plan, dist = spec
            L = np.int64(len(tokens))
            d = np.int64(int(dist))
            for s in self.shards:
                cand, S = self._occurrence_keys(s, plans, tokens, 0)
                if cand is None or len(S) == 0:
                    continue
                if excl_plan is not None:
                    docs, tfs, pos = self._term_docs_positions(
                        s, excl_plan, within=cand
                    )
                    pidx = np.searchsorted(cand, docs)
                    ok = pidx < len(cand)
                    hit = np.zeros(len(docs), dtype=bool)
                    hit[ok] = cand[pidx[ok]] == docs[ok]
                    flat_ord = np.repeat(np.where(hit, pidx, -1), tfs)
                    kept = flat_ord >= 0
                    E = flat_ord[kept] * K + pos[kept]
                    if len(E):
                        ordv = S >> np.int64(32)
                        end = S & MASK32
                        start = end - (L - 1)
                        lo = ordv * K + np.maximum(start - d, 0)
                        hi = ordv * K + np.minimum(end + d, MASK32)
                        n_excl = (
                            np.searchsorted(E, hi, side="right")
                            - np.searchsorted(E, lo, side="left")
                        )
                        S = S[n_excl == 0]
                if len(S):
                    ids = cand[np.unique(S >> np.int64(32))]
                    out_q.extend([int(qid)] * len(ids))
                    out_d.append(ids)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "doc_id": pa.array(
                    np.concatenate(out_d) if out_d else np.empty(0, np.int64)
                ),
            }
        )

    def filter_ids(self, where) -> np.ndarray:
        parts = [self._filter_ids(s, where) for s in self.shards]
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    def facet_counts(
        self,
        facet_col: str,
        plans: list[TermPlan] | None,
        mode: str,
        n_query_terms: int,
    ) -> pd.DataFrame:
        """Facet-count PARTIAL over this worker's shards: (facet value,
        n_docs) — null facet values are a real group (dropna=False), matching
        SQL GROUP BY semantics."""
        import pandas as pd

        frames = []
        for s in self.shards:
            df = self._latest_live_docs(s, extra_cols=(facet_col,))
            if plans is not None:
                m = self._match_ids(s, plans, mode, n_query_terms)
                df = df[np.isin(df["doc_id"].to_numpy(), m, assume_unique=True)]
            frames.append(
                df.groupby(facet_col, as_index=False, dropna=False).agg(
                    n_docs=("doc_id", "size")
                )
            )
        if not frames:
            return pd.DataFrame({facet_col: [], "n_docs": []})
        out = pd.concat(frames, ignore_index=True)
        return out.groupby(facet_col, as_index=False, dropna=False)["n_docs"].sum()

    def _scored_meta(self, plan: BatchPlan, col: str):
        """Every match of every planned query (no top-k cut: a group or a
        boost can promote any matching doc) as (query_id, doc_id, score)
        arrays, plus each doc's CURRENT ``col`` value — inner join, as
        with a SQL join on the forward table."""
        import pandas as pd

        (q, d, s), _done = self._score_rows(plan, k=_ALL)
        meta = pd.concat([self._latest_live_docs(sh, (col,))
                          for sh in self.shards], ignore_index=True)
        ids = meta["doc_id"].to_numpy(np.int64)
        order = np.argsort(ids, kind="stable")
        ids, vals = ids[order], meta[col].to_numpy()[order]
        pos = np.searchsorted(ids, d)
        hit = pos < len(ids)
        hit[hit] = ids[pos[hit]] == d[hit]
        return q[hit], d[hit], s[hit], vals[pos[hit]]

    def grouped_partials(self, plan: BatchPlan, group_col: str) -> pd.DataFrame:
        """Field-collapsing partials (Solr group.field): per (query, group
        value) the top-k docs of this worker's shards, k from the plan.
        Scoring honours the plan's NOT and mm like ``score``; only
        (groups x k) rows per query leave the worker, re-merged exactly by
        ``QueryPool.grouped_topk``. Grouping needs every matching doc
        scored, so a stop-word query scores its full match set — the cost
        shape of facet counting over the match set."""
        import pandas as pd

        q, d, s, g = self._scored_meta(plan, group_col)
        codes, _ = pd.factorize(g, use_na_sentinel=False)
        idx, _rank = _topk_rows((q, codes), s, d, _row_k(plan.queries, q))
        return pd.DataFrame({"query_id": q[idx], "doc_id": d[idx],
                             "score": s[idx], group_col: g[idx]})

    def boosted_partials(
        self,
        plan: BatchPlan,
        boost_col: str,
        weights: dict,
        default_w: float,
    ) -> pd.DataFrame:
        """Function-query boost partials (Solr ``boost=``): every match
        scored (same boundary as ``grouped_partials``), then ``boosted =
        score * w(meta[boost_col])`` and this worker's top-k on (boosted
        desc, doc_id asc). Only k rows per query leave the worker."""
        import pandas as pd

        q, d, s, v = self._scored_meta(plan, boost_col)
        if len(d) == 0:
            w = np.empty(0, np.float64)
        elif callable(weights):
            # numeric function query (Solr recip()/linear() style):
            # weights is a vectorized fn over the meta column
            w = np.asarray(weights(v), dtype=np.float64)
        else:
            w = np.array([weights.get(x, default_w) for x in v], np.float64)
        boosted = s * w
        idx, _rank = _topk_rows((q,), boosted, d, _row_k(plan.queries, q))
        return pd.DataFrame({"query_id": q[idx], "doc_id": d[idx],
                             "score": s[idx], "boosted": boosted[idx]})

    def score(
        self,
        plan: BatchPlan,
        where=None,
        require_all: bool = False,
        deadline: float | None = None,
        n_terms_by_qid: dict[int, int] | None = None,
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[int]]:
        """Score a batch plan against this worker's shards → (per-shard
        top-k partials as (query_id, doc_id, score) numpy arrays, the query
        ids finished on every shard). The filter (``where``, Solr fq), the
        conjunctive (``require_all``, q.op=AND) and mm whitelists and the
        NOT blacklist are computed SHARD-LOCAL — nothing corpus-sized
        leaves the worker. ``deadline`` (Solr ``timeAllowed``): an epoch
        after which scoring stops, checked before each shard and chunk
        (``ShardScorer.score_batch``); the caller keeps only queries every
        shard finished.

        ``plan`` may also be a bare ``{qid: (k, term plans)}`` mapping:
        BM25, this index's avgdl, no NOT/mm/cursor, and ``n_terms_by_qid``
        giving each query's distinct-term count (default: its plans)."""
        if not isinstance(plan, BatchPlan):
            nt = n_terms_by_qid or {}
            plan = BatchPlan({q: QueryPlan(k, tp, nt.get(q, len(tp)))
                              for q, (k, tp) in plan.items()})
        return self._score_rows(plan, where, require_all, deadline)

    def _score_rows(self, plan: BatchPlan, where=None,
                    require_all: bool = False,
                    deadline: float | None = None, k: int | None = None,
                    allowed: np.ndarray | None = None):
        """One ``ShardScorer.score_batch`` pass per shard, behind ``score``,
        the grouped and boosted partials and boolean gates → ((query_id,
        doc_id, score) arrays, the query ids finished on every shard).
        ``k`` overrides every query's k; ``deadline`` is checked before each
        shard too. ``allowed``, a sorted doc-id whitelist, takes the place
        of ``where``."""
        n_done = dict.fromkeys(plan.queries, 0)
        parts = [(np.empty(0, np.int64), np.empty(0, np.int64),
                  np.empty(0, np.float64))]
        for s in self.shards:
            if deadline is not None and time.time() >= deadline:
                break
            ok = self._filter_ids(s, where) if where is not None else allowed
            part, done = self.scorers[s].score_batch(
                plan, ok, require_all, deadline, k)
            parts.append(part)
            for x in done:
                n_done[x] += 1
        return (tuple(np.concatenate(c) for c in zip(*parts)),
                [x for x, c in n_done.items() if c == len(self.shards)])


# ---------------------------------------------------------------------------
# Top-k merge: per-shard heaps → the final (score desc, doc_id asc) top-k
# ---------------------------------------------------------------------------

_ALL = 1 << 62  # a k that keeps every match


def _topk_rows(key: tuple, order: np.ndarray, doc: np.ndarray,
               k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one top-k merge kernel: one ``np.lexsort`` of the rows by
    (``key`` arrays asc, ``order`` desc, ``doc`` asc), 1-based ranks from
    the starts of each distinct key, and the rows with ``rank <= k`` (``k``
    per row) → (row indices in that order, their ranks). A doc lives in
    exactly one shard, so (order, doc) is a total order within a key and
    values pass through untouched."""
    n = len(doc)
    idx = np.lexsort((doc, -order) + tuple(reversed(key)))
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    for col in key:
        c = col[idx]
        starts[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(starts)
    rank = np.arange(1, n + 1, dtype=np.int64) - np.repeat(
        starts, np.diff(np.r_[starts, n]))
    keep = rank <= k[idx]
    return idx[keep], rank[keep]


def _row_k(live: dict, q: np.ndarray) -> np.ndarray:
    """Each row's k, ``live[query_id][0]``; 0 for a query not in ``live``,
    so its rows drop."""
    live_q = np.array(sorted(live), np.int64)
    if not len(live_q):
        return np.zeros(len(q), np.int64)
    live_k = np.array([live[x][0] for x in live_q.tolist()], np.int64)
    pos = np.minimum(np.searchsorted(live_q, q), len(live_q) - 1)
    return np.where(live_q[pos] == q, live_k[pos], 0)


def _merge_topk_parts(live: dict, parts: list) -> pa.Table:
    """Merge per-shard (query_id, doc_id, score) array triples (the
    ``ShardWorker.score`` partials) into per-query (query_id, rank, doc_id,
    score) top-k through ``_topk_rows``, k from ``live[qid][0]``; rows
    whose query_id is not in ``live`` are dropped. A query with a
    ``cursor`` (``QueryPlan``) orders on round(score, dp), as its shards
    selected its rows; scores pass through unrounded."""
    parts = [p for p in parts if len(p[0])]
    if not parts or not live:
        return QueryPool._EMPTY_TOPK
    q, d, s = (np.concatenate(c) for c in zip(*parts))
    dps = {qid: p.cursor[2] for qid, p in live.items()
           if getattr(p, "cursor", None) is not None}
    order = s.copy() if dps else s
    for qid, dp in dps.items():
        m = q == qid
        order[m] = np.round(s[m], dp)
    idx, rank = _topk_rows((q,), order, d, _row_k(live, q))
    return numpy_table({"query_id": q[idx], "rank": rank,
                        "doc_id": d[idx], "score": s[idx]})


# ---------------------------------------------------------------------------
# LocalSearcher / QueryPool: one pinned in-process searcher per index
# ---------------------------------------------------------------------------

class LocalSearcher:
    """Every shard of an index (or ``shards`` of them) in this process at
    ONE pinned marker: a ``ShardWorker`` and the ``TermStatsStore`` that
    plans for it. ``_ranked`` is the one ranked call of the engine — plan
    (``_plan_batch``), score (``ShardWorker.score``), merge
    (``_merge_topk_parts``) — behind ``search``, every ranked ``QueryPool``
    entry point and each ``bm25_serve`` worker.

    A ``_StaleIndexRead`` (the reap rule removed the store's term-stats
    version, two commits on) reopens the searcher whole at the newest
    marker and runs the call again (``_repinning``)."""

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 at: int | None = None):
        self.index_dir = index_dir
        self._shards = shards
        self.worker: ShardWorker | None = None
        self._pinning = False  # inside a _repinning call
        self._open(at)

    def _open(self, at: int | None = None) -> None:
        """Pin marker ``at`` (the newest when None): the worker loads its
        state — reusing the readers of unchanged segments on a reopen
        (``ShardWorker.refresh``), re-pinning the newest marker if a
        compaction reaped part of it — and the store plans at the marker
        the worker holds."""
        if self.worker is None:
            self.worker = ShardWorker(self.index_dir, self._shards, at)
        else:
            self.worker.refresh(at)
        self.store = TermStatsStore(self.index_dir, at=self.worker.marker)

    @property
    def marker(self) -> int:
        """The marker the searcher is pinned at."""
        return self.worker.marker

    def _repinning(self, fn):
        """Run fn; while it raises ``_StaleIndexRead`` (the pinned
        marker's term stats were reaped), reopen at the newest marker and
        run it again (``_repin_attempts``). A call made inside another one
        runs once and leaves a stale read to the outer call, so every step
        of the outer fn (a term lookup and the score of its terms) sees
        one marker."""
        if self._pinning:
            return fn()
        self._pinning = True
        try:
            for _ in _repin_attempts(self.index_dir):
                try:
                    return fn()
                except _StaleIndexRead:
                    self._open()
        finally:
            self._pinning = False

    def _ranked(self, queries: pa.Table, where=None,
                require_all: bool = False, mu: float | None = None,
                time_allowed_s: float | None = None
                ) -> tuple[pa.Table, list[int]]:
        """Plan ``queries`` with the store, score the plan on the worker
        and merge → (the top-k table, the sorted ids of the planned queries
        ``time_allowed_s`` cut off). The budget starts once the batch is
        planned; a query is in the table only if every shard finished it."""
        plan = self._repinning(lambda: _plan_batch(self.store, queries, mu))
        deadline = (None if time_allowed_s is None
                    else time.time() + max(0.0, float(time_allowed_s)))
        part, done = self.worker.score(plan, where, require_all, deadline)
        done = set(done)
        live = {q: v for q, v in plan.queries.items() if q in done}
        return (_merge_topk_parts(live, [part]),
                sorted(q for q in plan.queries if q not in done))

    def search(
        self, text: str, k: int, where=None, require_all: bool = False,
        not_text: str | None = None,
    ) -> list[tuple[int, float]]:
        """``where``: optional pyarrow dataset filter expression over the
        forward doc table's meta columns (e.g. ``pc.field("lang") == "py"``)
        — the facet/range-filter query surface (S6/J8).
        ``require_all``: conjunctive (AND) ranking — only docs containing
        every query term are scored; scores identical to the unrestricted
        query's (a Solr q.op=AND analog).
        ``not_text``: NOT clause (Solr ``a -b``) — docs containing ANY of
        its terms are excluded; surviving scores unchanged. All three
        restrictions are computed shard-locally inside the worker."""
        queries = pa.table({
            "query_id": pa.array([0], pa.int64()),
            "text": pa.array([text], pa.string()),
            "k": pa.array([k], pa.int64()),
            "not_text": pa.array([not_text], pa.string()),
        })
        t, _cut = self._ranked(queries, where, require_all)
        return list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


def _repins(method):
    """A ``QueryPool`` entry point that plans with the pool's store: run it
    through ``LocalSearcher._repinning``."""
    @functools.wraps(method)
    def run(self, *args, **kwargs):
        return self._repinning(lambda: method(self, *args, **kwargs))
    return run


def _ids_by_query(t: pa.Table, out: dict[int, np.ndarray]
                  ) -> dict[int, np.ndarray]:
    """``out`` with each query's sorted doc ids of a (query_id, doc_id)
    table set."""
    q = t["query_id"].to_numpy()
    d = t["doc_id"].to_numpy()
    for qid in np.unique(q).tolist():
        out[int(qid)] = np.sort(d[q == qid])
    return out


class QueryPool(LocalSearcher):
    """The cached searcher behind ``get_pool``: a ``LocalSearcher`` over
    every shard, whose state loads ONCE (T5) and serves every query batch,
    boolean match, facet count and filter until a commit lands, plus a
    result cache. ``get_pool`` then reopens it in place (``refresh``):
    unchanged segment readers are reused, the store and worker re-pin the
    newest marker together."""

    # Solr queryResultCache analog: results cache on the POOL INSTANCE, so
    # invalidation rides the existing staleness machinery for free —
    # ``get_pool`` compares the index's (build id, newest marker) with the
    # pool's and, after any commit, refreshes the pool in place, and
    # every reopen clears this cache. Capacity-bounded LRU; exact-key hits
    # only.
    RESULT_CACHE_CAP = 128

    _EMPTY_TOPK = numpy_table(
        {"query_id": np.empty(0, np.int64), "rank": np.empty(0, np.int64),
         "doc_id": np.empty(0, np.int64), "score": np.empty(0, np.float64)})

    def _open(self, at: int | None = None) -> None:
        from collections import OrderedDict

        self._result_cache: "OrderedDict[tuple, pa.Table]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.build = read_build_id(self.index_dir)
        super()._open(at)

    @property
    def sig(self) -> tuple:
        """(build id, marker) of the state the pool serves: equal to
        ``_index_signature`` while no commit landed since."""
        return self.build, self.marker

    def refresh(self) -> None:
        """Reopen at the newest marker (unchanged segment readers reused —
        see ``ShardWorker.refresh``) and drop the result cache: orders of
        magnitude cheaper than a cold open after a small delta add."""
        self._open()

    # -- ranked -------------------------------------------------------------

    @staticmethod
    def _cache_key(queries: pa.Table, where) -> str:
        """Fixed-size digest of the query table's serialized BYTES plus the
        filter expression's canonical string — not Python ``repr`` of either
        (a ``where`` object with a non-content-bearing repr would alias
        distinct filters, and repr of the table is O(total query text)
        rebuilt per call)."""
        import hashlib

        import pyarrow.ipc as ipc

        h = hashlib.sha256()
        sink = pa.BufferOutputStream()
        with ipc.new_stream(sink, queries.schema) as w:
            w.write_table(queries)
        h.update(sink.getvalue())
        if where is not None:
            h.update(_expression_key(where))
        return h.hexdigest()

    def topk(
        self, queries: pa.Table, where=None, require_all: bool = False
    ) -> pa.Table:
        """(query_id:int64, text:string, k:int32) → (query_id, rank, doc_id,
        score). An optional ``not_text`` string column carries each query's
        NOT clause (Solr ``a -b``): docs containing ANY of its terms are
        excluded, surviving scores unchanged. Optional ``min_match``
        (edismax mm) and ``cursor_score`` (float64) / ``cursor_doc``
        (int64) columns: a search-after mark (Solr cursorMark) ranks only
        docs strictly after (round(score, 6) desc, doc_id asc) =
        (cursor_score, cursor_doc); a null cursor_score means no cursor.
        Results LRU-cache on the pool (see RESULT_CACHE_CAP); a commit
        makes ``get_pool`` refresh the pool, which clears the cache, so
        stale hits can't happen."""
        key = (self._cache_key(queries, where), bool(require_all))
        hit = self._result_cache.get(key)
        if hit is not None:
            self._result_cache.move_to_end(key)
            self.cache_hits += 1
            return hit
        self.cache_misses += 1
        out, _cut = self._ranked(queries, where, require_all)
        self._result_cache[key] = out
        while len(self._result_cache) > self.RESULT_CACHE_CAP:
            self._result_cache.popitem(last=False)
        return out

    def topk_time_allowed(
        self, queries: pa.Table, time_allowed_s: float, where=None,
        require_all: bool = False,
    ) -> tuple[pa.Table, list[int]]:
        """Deadline-bounded top-k (Solr ``timeAllowed`` + partialResults):
        returns ``(topk_table, partial_qids)``. A query appears in the table
        only if every shard finished it before the deadline (those rows are
        bit-identical to the exact path); the rest are listed in
        ``partial_qids`` — dropped, never returned with silently-wrong
        ranks. ``time_allowed_s <= 0`` degenerates to all-partial. The
        budget starts once the batch is planned. The worker checks it
        before each shard and each accumulator chunk of the batch pass, not
        within one: a batch that fits one chunk (``_chunks``; a whole
        160-row batch over a small shard) finishes or drops on that shard
        as a whole."""
        return self._ranked(queries, where, require_all,
                            time_allowed_s=time_allowed_s)

    def topk_lmd(self, queries: pa.Table, mu: float = 2000.0) -> pa.Table:
        """LM-Dirichlet ranked retrieval (Lucene LMDirichletSimilarity):
        the BM25 plan/score/merge path and side channels, planned for
        LM-Dirichlet(``mu``) — a different per-posting contribution and
        bound (``_contrib``)."""
        return self._ranked(queries, mu=float(mu))[0]

    # -- term-dictionary lookups ---------------------------------------------

    def vocabulary_lookup(self, fn):
        """``fn(vocabulary)`` over the pinned store's ``Vocabulary``: the
        terms the pool scores, never a newer commit's."""
        return self._repinning(lambda: fn(self.store.vocabulary()))

    def expanded_topk(self, queries: pa.Table, key_col: str, expand
                      ) -> pa.Table:
        """Top-k of each row of ``queries`` (query_id, ``key_col``, k) as
        the OR query of the terms ``expand(store, keys)`` maps its
        ``key_col`` value to (no terms: no rows), ``keys`` the column's
        distinct values; rows answer in table order, each on its own even
        when two share a query id. The lookup and the score see ONE pinned
        marker: a reaped version re-runs both at the newest. Fuzzy,
        prefix, regexp and more-like-this queries."""
        keys = queries[key_col].to_pylist()

        def run():
            got = expand(self.store, list(dict.fromkeys(keys)))
            texts = [" ".join(got[key]) for key in keys]
            rows = [i for i, text in enumerate(texts) if text]
            if not rows:
                return self._EMPTY_TOPK
            t = self.topk(pa.table({  # query_id: the row number
                "query_id": pa.array(rows, pa.int64()),
                "text": pa.array([texts[i] for i in rows], pa.string()),
                "k": queries["k"].take(rows)}))
            return t.set_column(0, "query_id",
                                queries["query_id"].take(t["query_id"]))
        return self._repinning(run)

    # -- boolean / facet / filter -------------------------------------------

    def _plan_boolean(self, text: str, mode: str):
        terms = self.store._analyze(text)
        plans = self.store._plan(terms)
        nq = len(terms)
        if not plans or (mode == "and" and len(plans) < nq):
            return None, nq
        return plans, nq

    @_repins
    def matching_doc_ids(self, text: str, mode: str = "and") -> np.ndarray:
        plans, nq = self._plan_boolean(text, mode)
        if plans is None:
            return np.empty(0, np.int64)
        return np.sort(self.worker.match(plans, mode, nq))

    @_repins
    def gate_scores(self, texts: list[str], allowed: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Every match of each of the OR queries ``texts`` among the sorted
        doc ids ``allowed`` → unranked (doc_id, score) arrays, in one batch
        pass: the gated scores of a boolean query
        (``qparser.boolean_topk``)."""
        plan = _plan_batch(self.store, pa.table({
            "query_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "k": pa.array([0] * len(texts), pa.int64())}))
        (_q, doc, score), _done = self.worker._score_rows(
            plan, k=_ALL, allowed=allowed)
        return doc, score

    @property
    def has_positions(self) -> bool:
        """True iff the index stores per-posting token positions (built with
        ``BuildConfig(store_positions=True)``) — phrase queries then verify
        inside the index instead of re-reading candidate raw text."""
        return bool(self.store.stats.get("positions", False))

    @_repins
    def phrase_ids(
        self, phrases: dict[int, tuple]
    ) -> dict[int, np.ndarray]:
        """Positional phrase matching: ``phrases`` maps qid → (phrase text,
        slop) or (phrase text, slop, max_start) — ``max_start`` restricts
        the match to spans whose first token sits among the doc's first
        ``max_start`` tokens (Lucene SpanFirst). Returns qid → sorted
        matching doc ids (empty arrays for no-match / unplannable phrases).
        One worker call for ALL queries, returning only (query_id, doc_id)
        pairs (bounded by the rarest term's df)."""
        planned: dict[int, tuple] = {}
        for qid, spec in phrases.items():
            text, slop = spec[0], spec[1]
            toks = tokenize_text(self.store.qtext(text))
            entry = (self.store.plan_query(text), toks, int(slop))
            if len(spec) > 2 and spec[2] is not None:
                entry = entry + (int(spec[2]),)
            planned[int(qid)] = entry
        out = {int(q): np.empty(0, np.int64) for q in phrases}
        return _ids_by_query(self.worker.phrase_ids(planned), out)

    @_repins
    def span_not_ids(
        self, queries: dict[int, tuple]
    ) -> dict[int, np.ndarray]:
        """Lucene SpanNot matching: ``queries`` maps qid → (phrase text,
        exclude term, dist). Returns qid → sorted doc ids having at least
        one exact-phrase occurrence with no exclude-term occurrence within
        ``dist`` tokens of the span (pre = post = dist). Same shape as
        ``phrase_ids``."""
        planned: dict[int, tuple] = {}
        for qid, (text, excl, dist) in queries.items():
            toks = tokenize_text(self.store.qtext(text))
            excl_toks = tokenize_text(self.store.qtext(excl))
            if len(excl_toks) != 1:
                raise ValueError(
                    f"span_not_ids wants a single exclude term, got {excl!r}"
                )
            eplans = self.store.plan_query(excl_toks[0])
            planned[int(qid)] = (
                self.store.plan_query(text), toks,
                eplans[0] if eplans else None, int(dist),
            )
        out = {int(q): np.empty(0, np.int64) for q in queries}
        return _ids_by_query(self.worker.span_not_ids(planned), out)

    @_repins
    def facet_counts(
        self, facet_col: str, text: str | None = None, mode: str = "and"
    ) -> pd.DataFrame:
        """(facet value, n_docs) over the docs matching ``text`` (every
        doc when None), each counted once under its current version at
        the pinned marker (``ShardWorker._latest_live_docs``)."""
        plans: list[TermPlan] | None = None
        nq = 0
        if text is not None:
            plans, nq = self._plan_boolean(text, mode)
            if plans is None:  # zero-match query → empty facet table
                import pandas as pd

                return pd.DataFrame({facet_col: [], "n_docs": []}).astype(
                    {"n_docs": np.int64})
        out = self.worker.facet_counts(facet_col, plans, mode, nq)
        out = out.sort_values([facet_col], ignore_index=True)
        out["n_docs"] = out["n_docs"].astype(np.int64)
        return out

    def filter_doc_ids(self, where) -> np.ndarray:
        return np.sort(self.worker.filter_ids(where))

    @_repins
    def grouped_topk(
        self, queries: pa.Table, group_col: str
    ) -> pd.DataFrame:
        """Field collapsing (Solr group.field): per query and per distinct
        ``group_col`` value, the top-k docs by (score desc, doc_id asc) —
        k from each query's ``k`` column. Returns (query_id, <group_col>,
        grp_rank, doc_id, score): the worker's per-group heaps, merged
        here. Takes ``not_text`` and ``min_match`` like ``topk``; a cursor
        column raises ValueError (Solr rejects cursorMark with grouping
        too)."""
        import pandas as pd

        plan = _plan_batch(self.store, queries, cursors=False)
        merged = (self.worker.grouped_partials(plan, group_col)
                  if plan.queries else pd.DataFrame(
                      {"query_id": pd.Series([], dtype=np.int64),
                       "doc_id": pd.Series([], dtype=np.int64),
                       "score": pd.Series([], dtype=np.float64),
                       group_col: pd.Series([], dtype=object)}))
        q = merged["query_id"].to_numpy(np.int64)
        codes, _ = pd.factorize(merged[group_col], sort=True,
                                use_na_sentinel=False)
        idx, rank = _topk_rows((q, codes), merged["score"].to_numpy(),
                               merged["doc_id"].to_numpy(),
                               _row_k(plan.queries, q))
        out = merged.iloc[idx].reset_index(drop=True)
        out["grp_rank"] = rank
        return out[["query_id", group_col, "grp_rank", "doc_id", "score"]]

    @_repins
    def boosted_topk(
        self,
        queries: pa.Table,
        boost_col: str,
        weights: dict,
        default_w: float = 1.0,
    ) -> pd.DataFrame:
        """Boost query (Solr ``boost=``): top-k per query by
        ``score * w(boost_col)``. ``weights`` is either a categorical
        ``{value: w}`` dict (with ``default_w``) or a VECTORIZED callable
        over the meta column (numeric function queries — recip()/linear()).
        Returns (query_id, doc_id, score, boosted). Takes ``not_text`` and
        ``min_match`` like ``topk``; a cursor column raises ValueError."""
        import pandas as pd

        plan = _plan_batch(self.store, queries, cursors=False)
        merged = (self.worker.boosted_partials(plan, boost_col, weights,
                                               default_w)
                  if plan.queries else pd.DataFrame(
                      {c: pd.Series([], dtype=t) for c, t in (
                          ("query_id", np.int64), ("doc_id", np.int64),
                          ("score", np.float64), ("boosted", np.float64))}))
        q = merged["query_id"].to_numpy(np.int64)
        idx, _rank = _topk_rows((q,), merged["boosted"].to_numpy(),
                                merged["doc_id"].to_numpy(),
                                _row_k(plan.queries, q))
        return merged.iloc[idx].reset_index(drop=True)


class _ServeWorker:
    """One ``bm25_serve`` worker (a Ray Data actor): a ``LocalSearcher`` at
    the marker the driver read, with every term-stats bucket loaded up
    front, so each batch it answers plans and scores one committed state
    and reads no term stats from disk."""

    def __init__(self, index_dir: str, marker: int):
        s = self.searcher = LocalSearcher(index_dir, at=marker)
        s._repinning(lambda: [s.store._load_bucket(b) for b in
                              range(int(s.store.stats["n_buckets"]))])

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.searcher._ranked(batch)[0]


def bm25_serve(index_dir: str, queries_ds, concurrency: int = 2,
               batch_size: int = 32):
    """Serve a query Dataset: ``map_batches`` over an autoscaling pool of
    1 to ``concurrency`` actors (a one-block input starts one; each loads
    the whole index), each holding the in-process searcher of one marker
    (``_ServeWorker``;
    the driver reads the marker once, a worker that finds part of its
    state reaped re-pins the newest). A batch pays one plan, one
    in-process score and one merge. The query table takes the same
    optional columns as ``bm25_topk`` (``not_text``, ``min_match``,
    ``cursor_score``/``cursor_doc``)."""
    return queries_ds.map_batches(
        _ServeWorker,
        fn_constructor_args=(index_dir, newest_gen(index_dir)),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


def _index_signature(index_dir: str) -> tuple:
    """(build id, newest marker): every commit writes a new marker and a
    rebuild in place a new build id, so this changes exactly when the
    state a reader would pin does."""
    return read_build_id(index_dir), newest_gen(index_dir)


_POOL_CACHE_MAX = 3
_POOLS: dict[str, "QueryPool"] = {}


def get_pool(index_dir: str) -> QueryPool:
    """Cached pool per index dir, at the index's newest marker: refreshed
    in place when a commit landed since. The cache is a small LRU, so long
    test sessions over many scratch indexes don't accumulate mmapped
    readers. A pool whose refresh raises leaves the cache."""
    sig = _index_signature(index_dir)
    pool = _POOLS.pop(index_dir, None)
    if pool is None:
        while len(_POOLS) >= _POOL_CACHE_MAX:
            _POOLS.pop(next(iter(_POOLS)))
        pool = QueryPool(index_dir)
    elif pool.sig != sig:
        # the index changed under a live pool: REOPEN it in place
        # (unchanged segment readers reused) — Lucene reopen economics
        pool.refresh()
    _POOLS[index_dir] = pool
    return pool


def get_pool_and_sig(index_dir: str):
    """(pool, the (build id, marker) it serves) — consumers that snapshot
    derived state alongside a pool (FederatedSearcher's merged global
    stats) compare signatures to know when their snapshot went stale,
    since the pool object itself is refreshed in place."""
    pool = get_pool(index_dir)
    return pool, pool.sig


def shutdown_pools() -> None:
    """Drop every cached pool (its readers unmap with it)."""
    _POOLS.clear()


def matching_doc_ids(index_dir: str, text: str, mode: str = "and") -> np.ndarray:
    """Boolean retrieval: sorted doc ids containing ALL ("and") or ANY
    ("or") of the query's terms — the reference's conjunctive facet
    predicate surface (`... AND types:repository`, IndexRecords.java:174).
    Tombstones excluded. Posting decode + set ops run in the pool's
    worker, shard by shard."""
    return get_pool(index_dir).matching_doc_ids(text, mode)


def facet_counts(
    index_dir: str, facet_col: str, text: str | None = None, mode: str = "and"
) -> "pd.DataFrame":
    """Facet counting over the (optionally query-restricted) doc set — the
    Solr ``facet.field`` surface. Per shard the pool's worker computes the
    shard-local match set (every doc without ``text``) and counts each
    doc's current facet value at the pinned marker against the shard's
    column-pruned ``_docs`` slice. Null facet values form a real group
    (SQL GROUP BY parity)."""
    return get_pool(index_dir).facet_counts(facet_col, text, mode)


def lmd_topk(index_dir: str, queries: pa.Table, mu: float = 2000.0) -> pa.Table:
    """LM-Dirichlet top-k through the cached pool (``QueryPool.topk_lmd``)."""
    return get_pool(index_dir).topk_lmd(queries, mu)


def filter_doc_ids(index_dir: str, where) -> np.ndarray:
    """Sorted doc ids passing a pyarrow filter expression over _docs —
    evaluated shard by shard in the pool's worker (column-pruned,
    predicate pushdown); prefer passing ``where=`` to the query paths
    directly, which keeps even the id arrays inside the worker."""
    return get_pool(index_dir).filter_doc_ids(where)


def explain(index_dir: str, text: str, doc_id: int) -> dict:
    """Per-term score breakdown for one document (Solr debugQuery analog):
    for each query term present in the doc — tf, dl, df, idf, contribution —
    plus the total. Sums in canonical term order, so ``total`` is
    bit-identical to the ranked score."""
    doc_id = int(doc_id)
    for _ in _repin_attempts(index_dir):
        # the store and the scorer at one marker: the live postings of
        # every generation (a replaced or deleted version never counts)
        try:
            store = TermStatsStore(index_dir)
            plans = store.plan_query(text)
            stats = store.stats
            scorer = ShardScorer(index_dir, doc_id % stats["n_shards"],
                                 buckets=sorted({p.bucket for p in plans}),
                                 at=store.marker)
            break
        except _StaleIndexRead:
            continue
    terms_out = []
    total = 0.0
    for p in plans:
        dense, tfs, dls, _pair, _len = scorer.read([(p.bucket, p.term)])
        hit = np.flatnonzero(scorer.doc_ids[dense] == doc_id)
        if len(hit):
            tf, dl = int(tfs[hit[0]]), int(dls[hit[0]])
            contrib = float(_contrib(p.idf, tf, dl, stats["avgdl"]))
            total += contrib
            terms_out.append(
                {"term": p.term, "tf": tf, "dl": dl, "idf": p.idf,
                 "upper_bound": p.ub, "contribution": contrib}
            )
    return {
        "doc_id": int(doc_id),
        "query": text,
        "k1": K1, "b": B,
        "n_docs": stats["n_docs"], "avgdl": stats["avgdl"],
        "terms": terms_out,
        "total": total,
    }


def bm25_topk(
    index_dir: str,
    queries: pa.Table,
    *,
    where=None,
    require_all: bool = False,
) -> pa.Table:
    """BM25 top-k over a queries table ``(query_id:int64, text:string,
    k:int32)`` → ``(query_id, rank, doc_id, score)``, through the cached
    ``QueryPool`` (T5): scorer state loads once per pool and is reused
    across calls; each batch is planned once, scored shard by shard into
    per-shard top-k heaps and merged. Takes the optional columns of
    ``QueryPool.topk`` (``not_text``, ``min_match``,
    ``cursor_score``/``cursor_doc``). ``where`` (a pyarrow expression over
    _docs meta columns) and ``require_all`` (conjunctive AND semantics) are
    evaluated shard-locally — no corpus-sized whitelist is built."""
    return get_pool(index_dir).topk(queries, where=where,
                                    require_all=require_all)
