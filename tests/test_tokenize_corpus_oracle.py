"""Unit tests: tokenizer kernels, corpus determinism, oracle sanity."""

import numpy as np
import pytest

from archivesspace_virgo_ray.corpus import NEEDLE_FMT, generate_corpus, generate_queries
from archivesspace_virgo_ray.functions.hashing import (
    doc_id_from_key,
    sha256_hex,
    sha256_hex_arrow,
)
from archivesspace_virgo_ray.functions.tokenize import (
    batch_term_doc_tf,
    stable_hash_strings,
    token_counts_batch,
    tokenize_text,
)
from archivesspace_virgo_ray.oracle import OracleIndex


def test_tokenize_basic():
    assert tokenize_text("Def foo_bar(x): return X+1") == [
        "def", "foo_bar", "x", "return", "x", "1",
    ]
    assert tokenize_text("") == []
    assert tokenize_text("...{}();") == []


def test_batch_term_doc_tf():
    terms, docs, tfs, dls = batch_term_doc_tf(
        np.array([7, 9]), np.array(["a b a", "b c"], dtype=object)
    )
    rows = sorted(zip(docs.tolist(), terms.tolist(), tfs.tolist(), dls.tolist()))
    assert rows == [(7, "a", 2, 3), (7, "b", 1, 3), (9, "b", 1, 2), (9, "c", 1, 2)]


def test_token_counts_batch():
    out = token_counts_batch(np.array(["a b c", "", "x__y z"], dtype=object))
    assert out.tolist() == [3, 0, 2]


def test_corpus_deterministic():
    t1 = generate_corpus(50, seed=42)
    t2 = generate_corpus(50, seed=42)
    assert t1.equals(t2)
    t3 = generate_corpus(50, seed=43)
    assert not t1.equals(t3)
    # needles planted
    assert NEEDLE_FMT.format(row=17) in t1["content"][17].as_py()
    # key uniqueness
    keys = set(
        zip(t1["repo"].to_pylist(), t1["path"].to_pylist(), t1["commit"].to_pylist())
    )
    assert len(keys) == 50


def test_doc_id_stable_and_unique():
    t = generate_corpus(200, seed=42)
    ids = doc_id_from_key(
        t["repo"].to_pylist(), t["path"].to_pylist(), t["commit"].to_pylist()
    )
    assert len(set(ids.tolist())) == 200
    assert (ids >= 0).all()
    ids2 = doc_id_from_key(
        t["repo"].to_pylist(), t["path"].to_pylist(), t["commit"].to_pylist()
    )
    assert (ids == ids2).all()


def test_stable_hash_deterministic():
    a = stable_hash_strings(["the", "def", "xyzzy"])
    b = stable_hash_strings(["the", "def", "xyzzy"])
    assert (a == b).all()
    assert a.dtype == np.uint64


def test_sha256():
    out = sha256_hex(["abc"])
    assert out[0] == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_sha256_hex_arrow_equals_sha256_hex():
    """The doc table's digests, hashed from the Arrow values buffer, equal
    ``sha256_hex`` of the Python strings: non-ASCII and empty texts, a
    sliced chunk and a column of several chunks, string and large_string."""
    import pyarrow as pa

    texts = ["abc", "", "héllo wörld ✓", "日本語のテキスト", "x" * 3000, "ünï"]
    want = sha256_hex(texts).tolist()
    padded = pa.array(["before", *texts, "after"]).slice(1, len(texts))
    for col in (pa.array(texts), pa.array(texts, pa.large_string()), padded,
                pa.chunked_array([padded.slice(0, 2), pa.array(texts[2:]),
                                  pa.array([], pa.string())])):
        got = sha256_hex_arrow(col)
        assert got.type == pa.string() and got.to_pylist() == want
    assert sha256_hex_arrow(pa.chunked_array([], pa.string())).to_pylist() == []


@pytest.fixture(scope="module")
def small_oracle():
    t = generate_corpus(120, seed=42)
    ids = doc_id_from_key(
        t["repo"].to_pylist(), t["path"].to_pylist(), t["commit"].to_pylist()
    )
    return OracleIndex(ids.tolist(), t["content"].to_pylist()), ids


def test_oracle_needle(small_oracle):
    oracle, ids = small_oracle
    top = oracle.score_query(NEEDLE_FMT.format(row=17), 10)
    assert len(top) == 1
    assert top[0][0] == int(ids[17])


def test_oracle_zero_hit(small_oracle):
    oracle, _ = small_oracle
    assert oracle.score_query("zz_no_such_term_zz", 10) == []


def test_oracle_topk_shape(small_oracle):
    oracle, _ = small_oracle
    top = oracle.score_query("the def license", 10)
    assert len(top) == 10
    scores = [s for _, s in top]
    assert scores == sorted(scores, reverse=True)


def test_queries_fixture():
    q = generate_queries()
    assert q.num_rows == 20
    assert set(q.column_names) == {"query_id", "text", "k"}
