"""Lucene-style query-string parser over the existing query primitives.

Grammar (the subset of Solr's lucene/edismax syntax the reference's users
actually type, SolrHelper.java query construction):

    term            SHOULD — scores, never restricts
    +term           MUST   — doc must contain it (still scores)
    -term           MUST_NOT — doc must not contain it
    "a b"           exact phrase (MUST; its terms also score)
    "a b"~N         sloppy phrase, max N intervening/reordered positions
    pref*           prefix — expands to the top-df matching vocabulary
                    terms (capped), added as SHOULD; +pref* requires ANY
                    expansion (disjunctive MUST, still scores); -pref*
                    EXCLUDES every expansion (never scores)
    field:value     metadata filter over the index's ``_docs`` meta columns
                    (Solr fq; restricts, never scores); -field:value
                    excludes. The field must exist in _docs — unknown
                    fields raise rather than silently matching nothing.

Semantics: the candidate set is (docs containing ALL must terms) ∩ (docs
matching every phrase) minus (docs containing ANY must-not term); ranking
is plain BM25 over the UNION of positive terms (should + must + phrase
tokens + prefix expansions) — restriction never changes scores, exactly
like Solr filter queries. Everything executes through the warm pool:
must-matching and phrase matching are shard-local id computations, the
final ranking is one ``topk`` scatter with a doc-id whitelist.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..functions.tokenize import tokenize_text
from .segments import numpy_table

_CLAUSE = re.compile(r'([+-]?)"([^"]*)"(?:~(\d+))?|([+-]?)(\S+)')

QS_MAX_EXPANSIONS = 5


_FIELD = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):(.+)$")


@dataclass
class ParsedQuery:
    should: list[str] = field(default_factory=list)
    must: list[str] = field(default_factory=list)
    must_not: list[str] = field(default_factory=list)
    phrases: list[tuple[str, int]] = field(default_factory=list)
    prefixes: list[str] = field(default_factory=list)
    must_prefixes: list[str] = field(default_factory=list)
    must_not_prefixes: list[str] = field(default_factory=list)
    filters: list[tuple[str, str, bool]] = field(default_factory=list)
    """(field, value, negated) metadata equality filters."""

    def all_prefixes(self) -> list[str]:
        return sorted(set(self.prefixes) | set(self.must_prefixes)
                      | set(self.must_not_prefixes))

    def positive_terms(self, expansions: dict[str, list[str]]) -> list[str]:
        terms = set(self.should) | set(self.must)
        for text, _slop in self.phrases:
            terms |= set(tokenize_text(text))
        # must-prefix expansions score like must terms; must_not expansions
        # never score (they only exclude)
        for p in self.prefixes + self.must_prefixes:
            terms |= set(expansions.get(p, []))
        return sorted(terms)


def parse_query(q: str) -> ParsedQuery:
    out = ParsedQuery()
    for m in _CLAUSE.finditer(q):
        sign_p, phrase, slop, sign_t, word = m.groups()
        if phrase is not None:
            if sign_p == "-":
                # prohibited phrases would need positional NOT — out of the
                # supported subset; treat the tokens as prohibited terms
                out.must_not.extend(tokenize_text(phrase))
            else:
                out.phrases.append((phrase, int(slop) if slop else 0))
            continue
        fm = _FIELD.match(word)
        if fm is not None:
            out.filters.append((fm.group(1), fm.group(2), sign_t == "-"))
            continue
        if word.endswith("*") and len(word) > 1:
            stem = tokenize_text(word[:-1])
            if stem:
                # clause sign carries through (Lucene semantics): -pref*
                # EXCLUDES its expansions, +pref* requires at least one
                if sign_t == "-":
                    out.must_not_prefixes.append(stem[-1])
                elif sign_t == "+":
                    out.must_prefixes.append(stem[-1])
                else:
                    out.prefixes.append(stem[-1])
            continue
        toks = tokenize_text(word)
        if not toks:
            continue
        if sign_t == "+":
            out.must.extend(toks)
        elif sign_t == "-":
            out.must_not.extend(toks)
        else:
            out.should.extend(toks)
    return out


def querystring_topk(
    index_dir: str,
    queries: pa.Table,
    max_expansions: int = QS_MAX_EXPANSIONS,
) -> pa.Table:
    """(query_id:int64, text:string query string, k:int32) → (query_id,
    rank, doc_id, score)."""
    import pyarrow.dataset as pads

    from .prefix import _prefix_rows, _terms
    from .query import get_pool, query_ids

    qids = query_ids(queries)
    # rows using the tree grammar (parens / AND / OR / NOT) route through
    # the Lucene-BooleanQuery evaluator; plain rows keep the flat path
    tree_rows = [i for i, t in enumerate(queries["text"].to_pylist())
                 if has_boolean_operators(t)]
    if tree_rows:
        flat_rows = [i for i in range(queries.num_rows)
                     if i not in set(tree_rows)]
        out = [boolean_topk(index_dir, queries.take(tree_rows))]
        if flat_rows:
            out.append(querystring_topk(
                index_dir, queries.take(flat_rows), max_expansions))
        return pa.concat_tables(out)

    pool = get_pool(index_dir)
    texts = queries["text"].to_pylist()
    ks = [int(v) for v in queries["k"].to_pylist()]
    parsed = {qid: parse_query(t) for qid, t in zip(qids, texts)}

    if any(pq.filters for pq in parsed.values()):
        import os as _os

        from .segments import DOCS, _docs_columns

        meta_cols = set(_docs_columns(_os.path.join(index_dir, DOCS)))
        for pq in parsed.values():
            for fld, _val, _neg in pq.filters:
                if fld not in meta_cols:
                    raise ValueError(
                        f"unknown filter field {fld!r}; _docs has "
                        f"{sorted(meta_cols)}")

    def run():
        all_prefixes = sorted({p for pq in parsed.values()
                               for p in pq.all_prefixes()})
        expansions = (_terms(_prefix_rows, pool.store.vocabulary(),
                             all_prefixes, max_expansions)
                      if all_prefixes else {})

        # batch every phrase across every query through ONE positional pass
        phrase_specs: dict[int, tuple] = {}
        phrase_owner: dict[int, int] = {}
        pid = 0
        for qid, pq in parsed.items():
            for text, slop in pq.phrases:
                phrase_specs[pid] = (text, slop)
                phrase_owner[pid] = qid
                pid += 1
        if phrase_specs and not pool.has_positions:
            raise ValueError(
                "query-string phrases need a positional index "
                "(BuildConfig(store_positions=True)); for non-positional "
                "indexes use index.phrase.phrase_topk's text-verify path")
        phrase_hits = pool.phrase_ids(phrase_specs) if phrase_specs else {}

        parts = []
        for qid, k in zip(qids, ks):
            pq = parsed[qid]
            positive = pq.positive_terms(expansions)
            if not positive:
                continue
            allowed: np.ndarray | None = None
            if pq.must:
                allowed = pool.matching_doc_ids(" ".join(pq.must), mode="and")
            for p in pq.must_prefixes:
                # +pref* is a disjunctive must: the doc needs ANY expansion.
                # An empty expansion set means no doc can satisfy the clause.
                exp = expansions.get(p, [])
                ids = (pool.matching_doc_ids(" ".join(exp), mode="or")
                       if exp else np.empty(0, dtype=np.int64))
                ids = np.sort(np.asarray(ids, dtype=np.int64))
                allowed = ids if allowed is None else np.intersect1d(
                    allowed, ids, assume_unique=True)
            for p, owner in phrase_owner.items():
                if owner != qid:
                    continue
                ids = np.sort(np.asarray(phrase_hits.get(p, []), dtype=np.int64))
                allowed = ids if allowed is None else np.intersect1d(
                    allowed, ids, assume_unique=True)
            if allowed is not None and len(allowed) == 0:
                continue
            not_terms = set(pq.must_not)
            for p in pq.must_not_prefixes:  # -pref*: exclude the expansions
                not_terms |= set(expansions.get(p, []))
            q1 = pa.table({
                "query_id": pa.array([qid], pa.int64()),
                "text": pa.array([" ".join(positive)], pa.string()),
                "k": pa.array([k], pa.int32()),
                **({"not_text": pa.array([" ".join(sorted(not_terms))],
                                         pa.string())}
                   if not_terms else {}),
            })
            where = (pads.field("doc_id").isin(allowed.tolist())
                     if allowed is not None else None)
            for fld, val, neg in pq.filters:
                e = (pads.field(fld) != val) if neg else (pads.field(fld) == val)
                where = e if where is None else (where & e)
            parts.append(pool.topk(q1, where=where))
        return pa.concat_tables(parts) if parts else pool._EMPTY_TOPK

    # the expansions, the must and phrase matches and the score at
    # one pinned marker
    return pool._repinning(run)


# --------------------- boolean query trees (Lucene BooleanQuery) ------------
#
# Grammar extension: parentheses + uppercase AND / OR / NOT over terms and
# quoted phrases ("a b"~N). Juxtaposition is OR (Lucene's default q.op).
# NOT binds tighter than AND/OR and must sit inside a conjunctive context —
# pure-negative queries/branches are rejected, exactly like Lucene.
#
# Scoring follows Lucene's BooleanScorer: a document's score is the sum of
# the contributions of the term leaves it matches THROUGH matching
# branches — a term inside a non-matching AND branch contributes nothing
# even if the doc contains it. Formally, leaf ℓ contributes to doc d iff
# d ∈ match(ℓ) and d ∈ match(A) for every AND-ancestor A of ℓ (OR
# ancestors impose nothing extra; NOT branches never score).
#
# Execution shape: one pooled boolean-match pass per unique leaf (the id
# arrays reach the driver — same boundary as the must/phrase handling
# above), numpy set algebra for the tree, then ONE pooled scoring pass per
# distinct contribution gate (every match among the gate's sorted doc ids,
# which each shard's batch pass takes as its whitelist), summed per doc
# with numpy. Distinct gates are few (bounded by the tree's AND nodes), so
# the fan-out is per-GATE, not per-doc.

_TREE_TOKEN = re.compile(r'\(|\)|"[^"]*"(?:~\d+)?|[^\s()]+')
_TREE_MARKERS = re.compile(r'[()]|(?:^|\s)(?:AND|OR|NOT)(?:\s|$)')


class BoolNode:
    __slots__ = ("op", "children", "leaf")

    def __init__(self, op: str, children=None, leaf=None):
        self.op = op          # "and" | "or" | "not" | "term" | "phrase"
        self.children = children or []
        self.leaf = leaf      # term str, or (phrase text, slop)


def has_boolean_operators(q: str) -> bool:
    """True when the string uses the tree grammar (parens / AND / OR /
    NOT) — querystring_topk routes those through the boolean evaluator."""
    return bool(_TREE_MARKERS.search(q))


def parse_boolean(q: str) -> BoolNode:
    toks = _TREE_TOKEN.findall(q)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def parse_or():
        node = parse_and()
        kids = [node]
        while True:
            t = peek()
            if t == "OR":
                take()
                kids.append(parse_and())
            elif t is not None and t not in (")", "AND", "OR"):
                kids.append(parse_and())  # juxtaposition = OR (q.op default)
            else:
                break
        return kids[0] if len(kids) == 1 else BoolNode("or", kids)

    def parse_and():
        kids = [parse_unary()]
        while True:
            t = peek()
            if t == "AND":
                take()
                kids.append(parse_unary())
            elif t == "NOT":
                # Lucene: ``a NOT b`` prohibits b in the current boolean
                # context — parse as a AND NOT b
                kids.append(parse_unary())
            else:
                break
        return kids[0] if len(kids) == 1 else BoolNode("and", kids)

    def parse_unary():
        if peek() == "NOT":
            take()
            return BoolNode("not", [parse_unary()])
        return parse_atom()

    def parse_atom():
        t = peek()
        if t is None:
            raise ValueError(f"boolean query {q!r}: unexpected end")
        if t == "(":
            take()
            node = parse_or()
            if peek() != ")":
                raise ValueError(f"boolean query {q!r}: missing ')'")
            take()
            return node
        if t == ")":
            raise ValueError(f"boolean query {q!r}: unexpected ')'")
        take()
        if t.startswith('"'):
            m = re.match(r'"([^"]*)"(?:~(\d+))?$', t)
            return BoolNode("phrase",
                            leaf=(m.group(1), int(m.group(2) or 0)))
        if t in ("AND", "OR", "NOT"):
            raise ValueError(f"boolean query {q!r}: dangling {t}")
        if t[0] in "+-" or any(c in t for c in ":*?"):
            # signed, fielded and wildcard clauses are query-string grammar
            # with no exact tree meaning; tokenizing would drop the operator
            raise ValueError(
                f"boolean query {q!r}: unsupported token {t!r} in a tree "
                "(use NOT, or the flat query-string form)")
        terms = tokenize_text(t)
        if not terms:
            raise ValueError(f"boolean query {q!r}: empty term {t!r}")
        if len(terms) > 1:  # e.g. "foo-bar" tokenizes to two terms -> OR
            return BoolNode(
                "or", [BoolNode("term", leaf=w) for w in terms])
        return BoolNode("term", leaf=terms[0])

    node = parse_or()
    if pos != len(toks):
        raise ValueError(f"boolean query {q!r}: trailing {toks[pos]!r}")
    return node


def _tree_leaves(node: BoolNode, out: list) -> None:
    if node.op in ("term", "phrase"):
        out.append(node)
    for c in node.children:
        _tree_leaves(c, out)


def _match_tree(node: BoolNode, leaf_ids) -> np.ndarray:
    """Bottom-up match sets (sorted unique int64). NOT is only legal as a
    child of an AND with at least one positive sibling (Lucene rejects
    pure-negative boolean contexts too)."""
    if node.op in ("term", "phrase"):
        return leaf_ids[id(node)]
    if node.op == "or":
        sets = []
        for c in node.children:
            if c.op == "not":
                raise ValueError(
                    "boolean query: NOT inside OR is pure-negative — "
                    "rewrite as (x AND NOT y)")
            sets.append(_match_tree(c, leaf_ids))
        out = sets[0]
        for s in sets[1:]:
            out = np.union1d(out, s)
        return out
    if node.op == "and":
        pos = [c for c in node.children if c.op != "not"]
        neg = [c for c in node.children if c.op == "not"]
        if not pos:
            raise ValueError("boolean query: AND of only NOT clauses is "
                             "pure-negative")
        out = _match_tree(pos[0], leaf_ids)
        for c in pos[1:]:
            out = np.intersect1d(out, _match_tree(c, leaf_ids),
                                 assume_unique=True)
        for c in neg:
            inner = c.children[0]
            if inner.op == "not":
                raise ValueError("boolean query: NOT NOT is unsupported")
            out = np.setdiff1d(out, _match_tree(inner, leaf_ids),
                               assume_unique=True)
        return out
    if node.op == "not":
        raise ValueError("boolean query: pure-negative query (top-level "
                         "or OR-branch NOT) matches nothing scoreable")
    raise AssertionError(node.op)


def _leaf_gates(node: BoolNode, leaf_ids, match_cache, gate, out) -> None:
    """gate(ℓ) = match(ℓ) ∩ ⋂ match(AND-ancestors); NOT subtrees are
    filters only — their leaves never reach ``out``."""
    if node.op in ("term", "phrase"):
        out.append((node, np.intersect1d(gate, leaf_ids[id(node)],
                                         assume_unique=True)
                    if gate is not None else leaf_ids[id(node)]))
        return
    if node.op == "not":
        return
    if node.op == "and":
        m = match_cache[id(node)]
        gate = m if gate is None else np.intersect1d(gate, m,
                                                     assume_unique=True)
    for c in node.children:
        _leaf_gates(c, leaf_ids, match_cache, gate, out)


def _cache_matches(node: BoolNode, leaf_ids, cache) -> np.ndarray:
    m = _match_tree(node, leaf_ids)
    cache[id(node)] = m
    for c in node.children:
        if c.op not in ("term", "phrase", "not"):
            _cache_matches(c, leaf_ids, cache)
        elif c.op == "not":
            _cache_matches(c.children[0], leaf_ids, cache)
    return m


def boolean_topk(index_dir: str, queries: pa.Table) -> pa.Table:
    """Top-k for boolean tree query strings — (query_id:int64, text:string,
    k:int32) → (query_id, rank, doc_id, score); score = Lucene
    BooleanScorer semantics (sum over leaves matched through matching
    branches), ranked (round(score, 6) desc, doc_id asc)."""
    from .query import get_pool

    pool = get_pool(index_dir)
    parts = []
    for qid, text, k in zip(queries["query_id"].to_pylist(),
                            queries["text"].to_pylist(),
                            queries["k"].to_pylist()):
        tree = parse_boolean(text)
        # the leaf matches and the gated scores at one pinned marker
        doc, score = pool._repinning(lambda: _boolean_scores(pool, tree))
        if not len(doc):
            continue
        ids, at = np.unique(doc, return_inverse=True)
        total = np.round(np.bincount(at, weights=score), 6)
        top = np.lexsort((ids, -total))[:int(k)]
        parts.append(numpy_table({
            "query_id": np.full(len(top), int(qid), np.int64),
            "rank": np.arange(1, len(top) + 1, dtype=np.int64),
            "doc_id": ids[top], "score": total[top]}))
    return pa.concat_tables(parts) if parts else pool._EMPTY_TOPK


def _boolean_scores(pool, tree: BoolNode) -> tuple[np.ndarray, np.ndarray]:
    """(doc_id, score) of every leaf contribution of ``tree``: one pooled
    match per unique leaf, then one gated pass per distinct gate."""
    from collections import Counter

    leaves: list[BoolNode] = []
    _tree_leaves(tree, leaves)
    leaf_ids: dict[int, np.ndarray] = {}
    term_cache: dict[str, np.ndarray] = {}
    phrase_cache: dict[tuple, np.ndarray] = {}
    phrase_specs = {}
    for i, lf in enumerate(leaves):
        if lf.op == "phrase" and lf.leaf not in phrase_cache:
            phrase_specs[i] = lf.leaf
    if phrase_specs:
        if not pool.has_positions:
            raise ValueError("boolean phrases need a positional index")
        hits = pool.phrase_ids(phrase_specs)
        for i, spec in phrase_specs.items():
            phrase_cache[spec] = np.sort(
                np.asarray(hits.get(i, []), dtype=np.int64))
    for lf in leaves:
        if lf.op == "term":
            if lf.leaf not in term_cache:
                term_cache[lf.leaf] = np.sort(np.asarray(
                    pool.matching_doc_ids(lf.leaf, mode="or"),
                    dtype=np.int64))
            leaf_ids[id(lf)] = term_cache[lf.leaf]
        else:
            leaf_ids[id(lf)] = phrase_cache[lf.leaf]

    match_cache: dict[int, np.ndarray] = {}
    e = np.empty(0, np.int64), np.empty(0, np.float64)
    if not len(_cache_matches(tree, leaf_ids, match_cache)):
        return e
    gates: list[tuple[BoolNode, np.ndarray]] = []
    _leaf_gates(tree, leaf_ids, match_cache, None, gates)
    # group scoring leaves by identical gate; phrases score via their
    # tokens (Lucene PhraseQuery scores like a conjunction weight —
    # here: the phrase's terms contribute within the phrase's gate)
    groups: dict[bytes, tuple[np.ndarray, Counter]] = {}
    for lf, gate in gates:
        if not len(gate):
            continue
        terms = ([lf.leaf] if lf.op == "term"
                 else tokenize_text(lf.leaf[0]))
        g = groups.setdefault(gate.tobytes(), (gate, Counter()))
        g[1].update(terms)
    parts = [e]
    for gate, counts in groups.values():
        # duplicate clauses each score (Lucene sums duplicate scorers): a
        # term appearing c times in this gate contributes c× its single
        # score — one query per multiplicity level m with the terms of
        # count >= m, all in one pass; the level sums add up to c×.
        parts.append(pool.gate_scores(
            [" ".join(sorted(t for t, c in counts.items() if c >= m))
             for m in range(1, max(counts.values()) + 1)], gate))
    return tuple(np.concatenate(c) for c in zip(*parts))
