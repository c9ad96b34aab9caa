"""Federated BM25 search over N independent indexes with GLOBAL statistics.

Solr's distributed search scores each shard with its own local IDF unless
distributed IDF (the ExactStatsCache) is enabled — the classic source of
cross-shard rank skew. This module implements the exact-stats model:
the driver merges per-term (df, max_tf, min_dl, cf) across every member
index (df and cf sum — member doc sets must be disjoint — max_tf max,
min_dl min) and corpus stats (n_docs/total_len sum; avgdl recomputed from
the sums), plans every query batch ONCE with those global values through
the pool's planner (``query._plan_batch``), and scores the plan on each
member's cached ``QueryPool`` worker, in process; the plan carries the
global avgdl.

Because a document lives in exactly one member index, per-doc contributions
accumulate in the same canonical term order (desc global upper bound, tie
asc term) with the same idf/avgdl floats as one combined index would use —
federated results are BIT-IDENTICAL to building a single index over the
union corpus (pinned by test). Member layouts may differ: each member gets
the plan with ITS OWN term→bucket mapping; global idf/ub ride along.
"""

from __future__ import annotations

from dataclasses import replace

import pyarrow as pa

from ..functions.tokenize import apply_analyzer, tokenize_text
from .query import (
    BatchPlan,
    TermPlan,
    TermStatsStore,
    _StaleIndexRead,
    _canonical,
    _merge_topk_parts,
    _plan_batch,
    _plan_terms,
    _repin_attempts,
    get_pool_and_sig,
)


def _rebucket(plans: list[TermPlan], store: TermStatsStore) -> list[TermPlan]:
    """``plans`` with each term's bucket in ``store``'s index."""
    buckets = store._bucket_of([p.term for p in plans])
    return [replace(p, bucket=b) for p, b in zip(plans, buckets)]


def _member_plan(plan: BatchPlan, store: TermStatsStore) -> BatchPlan:
    """``plan`` with member-local buckets, routed in one ``_bucket_of``
    call for the batch's terms."""
    terms = sorted({p.term for qp in plan.queries.values()
                    for p in (*qp.terms, *qp.neg)})
    bucket = dict(zip(terms, store._bucket_of(terms)))

    def move(plans: list[TermPlan]) -> list[TermPlan]:
        return [replace(p, bucket=bucket[p.term]) for p in plans]

    return replace(plan, queries={
        q: qp._replace(terms=move(qp.terms), neg=move(qp.neg))
        for q, qp in plan.queries.items()})


class FederatedSearcher:
    """Query N indexes as one. Members must hold disjoint doc-id sets (the
    natural state for a corpus partitioned at build time)."""

    def __init__(self, index_dirs: list[str]):
        if len(index_dirs) < 1:
            raise ValueError("FederatedSearcher needs at least one index")
        self.index_dirs = list(index_dirs)
        self._load_members()

    def _load_members(self) -> None:
        # each member plans with its pool's store: the marker its worker
        # holds
        self.pools, self._sigs = zip(
            *(get_pool_and_sig(d) for d in self.index_dirs))
        self.stores = [pool.store for pool in self.pools]
        self.n_docs = sum(st.stats["n_docs"] for st in self.stores)
        self.total_len = sum(st.stats["total_len"] for st in self.stores)
        self.avgdl = self.total_len / self.n_docs if self.n_docs else 0.0
        ans = {st.stats.get("analyzer", "plain") for st in self.stores}
        if len(ans) > 1:
            raise ValueError(
                f"federated members disagree on analyzer: {sorted(ans)} — "
                "global term stats would merge mixed token streams")
        self.analyzer = ans.pop() if ans else "plain"

    def _ensure_fresh(self) -> None:
        """Re-resolve member pools and RELOAD the merged global stats when
        any member changed. get_pool refreshes a cached pool IN PLACE on
        index change (Lucene reopen), so a long-lived federated searcher
        must not keep scoring with construction-time df/avgdl against
        refreshed postings — the stats snapshot follows the pools."""
        pools, sigs = zip(*(get_pool_and_sig(d) for d in self.index_dirs))
        if sigs != self._sigs:
            self._load_members()
        else:
            self.pools = pools

    @property
    def _avgdl(self) -> float:
        return self.avgdl

    def _analyze(self, text: str) -> list[str]:
        """The query's distinct terms, sorted, under the members' analyzer."""
        return sorted(set(tokenize_text(apply_analyzer(self.analyzer, text))))

    def _plan(self, terms: list[str], mu: float | None = None
              ) -> list[TermPlan]:
        """Canonical-order global plans of analysed ``terms``."""
        return _canonical(self._term_plans(terms, mu).values())

    def _term_plans(self, terms: list[str], mu: float | None = None
                    ) -> dict[str, TermPlan]:
        """term → global plan from merged stats — the ExactStatsCache
        exchange, O(terms × members), one hash call per member. Buckets
        are the first member's; ``_member_plan`` maps them to each
        member's layout."""
        merged: dict[str, tuple[int, int, int, int]] = {}
        first_buckets = None
        for st in self.stores:
            buckets = st._bucket_of(terms)
            if first_buckets is None:
                first_buckets = buckets
            for term, s in zip(terms, st._term_stats(terms, buckets)):
                if s is None:
                    continue
                m = merged.get(term)
                merged[term] = s if m is None else (
                    m[0] + s[0], max(m[1], s[1]), min(m[2], s[2]), m[3] + s[3])
        return _plan_terms(terms, first_buckets,
                           [merged.get(t) for t in terms], self.n_docs,
                           self.avgdl, self.total_len, mu)

    def plan_query(self, text: str) -> list[list[TermPlan]]:
        """One global plan per member index: merged-stat idf/ub, member-local
        bucket ids, canonical (desc ub, asc term) order shared by all."""
        plans = self._plan(self._analyze(text))
        return [_rebucket(plans, st) for st in self.stores]

    def _topk(self, queries: pa.Table, where=None,
              mu: float | None = None) -> pa.Table:
        """Plan once with global stats, score each member's rebucketed plan
        on its pool's worker, merge the per-shard k-heaps."""
        for _ in _repin_attempts(", ".join(self.index_dirs)):
            self._ensure_fresh()
            try:
                plan = _plan_batch(self, queries, mu)
                break
            except _StaleIndexRead:  # a member's term stats were reaped
                for pool in self.pools:
                    pool.refresh()
        parts = [pool.worker.score(_member_plan(plan, st), where)[0]
                 for st, pool in zip(self.stores, self.pools)
                 ] if plan.queries else []
        return _merge_topk_parts(plan.queries, parts)

    def topk(self, queries: pa.Table, where=None) -> pa.Table:
        """(query_id, text, k) → (query_id, rank, doc_id, score), the global
        top-k across every member; scores identical to a single combined
        index. Takes the same optional columns as ``bm25_topk``
        (``not_text``, ``min_match``, ``cursor_score``/``cursor_doc``).
        ``where``: optional pyarrow filter over the members' ``_docs``
        meta columns, evaluated shard-locally (Solr fq semantics — restricts
        the result set, never the stats). Each member's worker returns only
        its per-shard k-heaps."""
        return self._topk(queries, where)

    def topk_lmd(self, queries: pa.Table, mu: float = 2000.0) -> pa.Table:
        """Federated LM-Dirichlet: global cf/total_len, member-local
        buckets — bit-identical to ``QueryPool.topk_lmd`` on one combined
        index."""
        return self._topk(queries, mu=float(mu))

    def facet_counts(self, facet_col: str, text: str | None = None,
                     mode: str = "and"):
        """Federated facet: member partials sum (doc sets are disjoint).
        Term MATCHING needs no global stats — member-local plans suffice —
        so this delegates to each member's pool and merges the facet-sized
        tables on the driver."""
        self._ensure_fresh()
        import pandas as pd

        from .query import facet_counts as _member_facets

        parts = [_member_facets(d, facet_col, text=text, mode=mode)
                 for d in self.index_dirs]
        out = pd.concat(parts, ignore_index=True)
        out = out.groupby(facet_col, as_index=False, dropna=False)[
            "n_docs"].sum()
        out["n_docs"] = out["n_docs"].astype("int64")
        return out.sort_values(facet_col, ignore_index=True)
