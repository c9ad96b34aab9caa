"""Boolean query trees (index/qparser.py parse_boolean / boolean_topk).

Conformance bar: Lucene BooleanQuery semantics — matching via the tree,
scoring = sum of the contributions of term leaves matched THROUGH
matching branches (a term inside a failed AND branch contributes nothing
even when the doc contains it; NOT branches never score) — checked
against an independent reference evaluator built on oracle.OracleIndex's
postings, at 6-dp rounding (the cross-group float-order tolerance every
SQL-checked entry uses).
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.functions.tokenize import tokenize_text
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.qparser import (
    boolean_topk,
    has_boolean_operators,
    parse_boolean,
    querystring_topk,
)
from archivesspace_virgo_ray.oracle import K1, B, OracleIndex, bm25_idf

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)

QUERIES = [
    "(def AND return) OR (import NOT license)",
    "def NOT return",
    "(def OR import) AND (return OR license)",
    "license AND NOT (def OR return)",
    "def AND return AND import",
    "parse_0 OR (index_1 AND def)",
    # duplicate clauses each score (Lucene sums duplicate scorers)
    "(def OR return) OR def",
    "def AND def AND return",
]


def ref_boolean(oracle: OracleIndex, texts: dict[int, str], q: str,
                k: int) -> list[tuple[int, float]]:
    tree = parse_boolean(q)

    def contains(term):
        return set(oracle.postings.get(term, {}))

    def phrase_docs(leaf):
        text, slop = leaf
        toks = tokenize_text(text)
        assert slop == 0, "reference handles exact phrases only"
        out = set()
        for d, t in texts.items():
            dt = tokenize_text(t)
            for i in range(len(dt) - len(toks) + 1):
                if dt[i:i + len(toks)] == toks:
                    out.add(d)
                    break
        return out

    def match(n):
        if n.op == "term":
            return contains(n.leaf)
        if n.op == "phrase":
            return phrase_docs(n.leaf)
        if n.op == "or":
            out = set()
            for c in n.children:
                out |= match(c)
            return out
        if n.op == "and":
            pos = [c for c in n.children if c.op != "not"]
            out = match(pos[0])
            for c in pos[1:]:
                out &= match(c)
            for c in n.children:
                if c.op == "not":
                    out -= match(c.children[0])
            return out
        raise AssertionError(n.op)

    def score_term(term, doc):
        plist = oracle.postings[term]
        tf = plist[doc]
        dl = oracle.doc_len[doc]
        idf = bm25_idf(len(plist), oracle.n_docs)
        return (idf * tf * (K1 + 1.0)
                / (tf + K1 * (1.0 - B + B * dl / oracle.avgdl)))

    acc: dict[int, float] = {}

    def walk(n, gate):
        if n.op in ("term", "phrase"):
            terms = [n.leaf] if n.op == "term" else tokenize_text(n.leaf[0])
            hit = match(n) & gate if gate is not None else match(n)
            for d in hit:
                for t in terms:
                    if d in oracle.postings.get(t, {}):
                        acc[d] = acc.get(d, 0.0) + score_term(t, d)
            return
        if n.op == "not":
            return
        if n.op == "and":
            m = match(n)
            gate = m if gate is None else gate & m
        for c in n.children:
            walk(c, gate)

    walk(tree, None)
    ranked = sorted(((d, round(s, 6)) for d, s in acc.items()),
                    key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


@pytest.fixture(scope="module")
def built(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("boolq")
    full = generate_corpus(300, seed=67)
    pq.write_table(full, str(d / "c.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "c.parquet"), idx,
                BuildConfig(store_positions=True, **CFG), resume=False)
    ids = doc_id_from_key(full["repo"].to_pylist(), full["path"].to_pylist(),
                          full["commit"].to_pylist())
    texts = dict(zip((int(i) for i in ids), full["content"].to_pylist()))
    oracle = OracleIndex(list(texts), list(texts.values()))
    return idx, oracle, texts


def _q(texts, k=10):
    n = len(texts)
    return pa.table({"query_id": pa.array(range(n), pa.int64()),
                     "text": pa.array(texts),
                     "k": pa.array([k] * n, pa.int32())})


def test_boolean_matches_reference(built):
    idx, oracle, texts = built
    got = boolean_topk(idx, _q(QUERIES)).to_pandas()
    for qid, q in enumerate(QUERIES):
        expect = ref_boolean(oracle, texts, q, 10)
        sub = got[got["query_id"] == qid]
        assert sub["doc_id"].tolist() == [d for d, _ in expect], q
        assert sub["score"].round(6).tolist() == [s for _, s in expect], q


def test_boolean_phrase_leaf(built):
    idx, oracle, texts = built
    q = '"def parse_0" OR (license AND import)'
    got = boolean_topk(idx, _q([q])).to_pandas()
    expect = ref_boolean(oracle, texts, q, 10)
    assert got["doc_id"].tolist() == [d for d, _ in expect]


def test_querystring_autoroutes_trees(built):
    idx, oracle, texts = built
    mixed = _q(["(def AND return) OR (import NOT license)",  # tree
                "+def return"])                              # flat
    out = querystring_topk(idx, mixed).to_pandas()
    tree_part = out[out["query_id"] == 0]
    expect = ref_boolean(oracle, texts, QUERIES[0], 10)
    assert tree_part["doc_id"].tolist() == [d for d, _ in expect]
    assert len(out[out["query_id"] == 1])  # flat path still served


def test_pure_negative_rejected(built):
    idx, _oracle, _texts = built
    for bad in ("NOT def", "def OR NOT return"):
        with pytest.raises(ValueError, match="negative"):
            boolean_topk(idx, _q([bad]))


def test_marker_detection():
    assert has_boolean_operators("a AND b")
    assert has_boolean_operators("(x y)")
    assert not has_boolean_operators("band operator android")
    assert not has_boolean_operators('+must -not "a phrase"~1 pref*')


@pytest.mark.parametrize("q, token", [
    ("apple AND -banana", "-banana"),
    ("+apple OR banana", "+apple"),
    ("title:banana AND apple", "title:banana"),
    ("(pre* OR apple)", "pre*"),
    ("apple AND ba?ana", "ba?ana"),
])
def test_unsupported_atoms_rejected(q, token):
    """Signed, fielded and wildcard atoms have no exact meaning inside a
    tree; they must raise naming the token, not parse as plain terms."""
    with pytest.raises(ValueError) as exc:
        parse_boolean(q)
    assert repr(token) in str(exc.value)


def test_inner_hyphen_stays_or_of_terms():
    tree = parse_boolean("foo-bar AND baz")
    assert tree.op == "and"
    inner, last = tree.children
    assert inner.op == "or" and [c.leaf for c in inner.children] == ["foo", "bar"]
    assert last.op == "term" and last.leaf == "baz"
