"""The build's Arrow tokenize kernel against the ``tokenize_text`` contract
(``str.lower`` + ``findall``), the build's refusal of a null text, and the
``ident`` analyzer's identifier split."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archivesspace_virgo_ray.functions.tokenize import (
    batch_term_codes,
    batch_term_doc_tf,
    batch_term_doc_tf_pos,
    batch_term_doc_tf_py,
    tokenize_text,
)
from archivesspace_virgo_ray.index.postings import decode_positions


def _canon_tdtf(res):
    terms, dids, tfs, dls = res[:4]
    return sorted(zip([str(t) for t in terms], dids.tolist(),
                      tfs.tolist(), dls.tolist()))


def _positions_by_posting(terms, doc_ids, tfs, pos):
    """(term, doc) -> in-doc positions, decoded from the kernel's
    per-posting position bytes."""
    out = {}
    for i, (t, d, tf) in enumerate(zip(terms, doc_ids.tolist(), tfs.tolist())):
        b = pos[i].as_py()
        out[(str(t), d)] = decode_positions(
            b, np.array([len(b)]), np.array([tf])).tolist()
    return out


def _want_positions(ids, texts):
    want = {}
    for d, text in zip(ids.tolist(), texts):
        for p, tok in enumerate(tokenize_text(text)):
            want.setdefault((tok, d), []).append(p)
    return want


def _check_all_variants(ids, texts):
    """The three kernel forms equal the findall reference, and the
    positional form's positions are each token's index in the doc."""
    want = _canon_tdtf(batch_term_doc_tf_py(ids, np.asarray(texts, dtype=object)))
    arr = pa.array(list(texts), pa.string())
    assert _canon_tdtf(batch_term_doc_tf(ids, arr)) == want
    res = batch_term_doc_tf_pos(ids, arr)
    assert _canon_tdtf(res) == want
    assert _positions_by_posting(res[0], res[1], res[2], res[4]) == \
        _want_positions(ids, texts)


def test_arrow_tokenize_kernel_equals_python_all_bmp():
    """The Arrow kernel (utf8_lower + byte table + whitespace split) must
    produce the same (term, doc, tf, dl) SET as the findall reference for
    EVERY representable BMP codepoint embedded mid-token — this is what
    licenses using it in the index build while tokenize_text stays the
    contract."""
    chunk = [f"ab{chr(cp)}cd" for cp in range(0x20, 0x10000)
             if not (0xD800 <= cp <= 0xDFFF)]
    big = np.array([" ".join(chunk[i:i + 4000])
                    for i in range(0, len(chunk), 4000)], dtype=object)
    ids = np.arange(len(big))
    want = _canon_tdtf(batch_term_doc_tf_py(ids, big))
    assert _canon_tdtf(batch_term_doc_tf(ids, big)) == want
    assert _canon_tdtf(batch_term_doc_tf_pos(ids, big)) == want


def test_arrow_tokenize_kernel_astral_plane():
    """Astral-plane code points (4-byte UTF-8, some with case mappings)
    split tokens exactly as the reference does."""
    cps = list(range(0x10000, 0x10500)) + list(range(0x1D400, 0x1D440)) + \
        list(range(0x1E900, 0x1E950)) + [0x1F600, 0x10FFFF]
    texts = [" ".join(f"x{chr(cp)}Y{chr(cp)}{chr(cp)}z9" for cp in cps[i:i + 50])
             for i in range(0, len(cps), 50)]
    _check_all_variants(np.arange(len(texts)), texts)


def test_arrow_tokenize_kernel_case_folds_to_ascii():
    """U+0130 (full lowercase 'i' + U+0307, Arrow's simple one plain 'i')
    and U+212A KELVIN SIGN (lowercases to ASCII 'k') tokenize as the
    reference does."""
    texts = ["İSTANBUL istİb", "Kelvin 5K xKy", "İK", "K"]
    _check_all_variants(np.arange(len(texts)), texts)
    terms = set(batch_term_doc_tf(np.arange(4), np.asarray(texts, object))[0])
    assert {"kelvin", "5k", "xky", "k"} <= terms and "ik" not in terms


def test_arrow_tokenize_kernel_empty_strings():
    texts = ["", "   ", "a", "", "--", "b_ c", ""]
    ids = np.arange(len(texts)) * 7
    _check_all_variants(ids, texts)
    codes, vocab, doc_ids, tfs, dls, pos = batch_term_codes(
        ids, pa.array(["", " ", "-"]), positions=True)
    assert len(codes) == len(doc_ids) == len(pos) == 0
    assert batch_term_doc_tf(np.arange(0), pa.array([], pa.string()))[0].shape == (0,)


def test_arrow_tokenize_kernel_sliced_input():
    """A slice with a non-zero array offset (the build tokenizes a table
    in ``batch_size`` slices) tokenizes as the same rows copied out."""
    texts = [f"Doc{i} alpha{i % 3} ÉTÉ beta_{i}  gamma" * (1 + i % 4) for i in range(40)]
    col = pa.chunked_array([pa.array(texts[:25]), pa.array(texts[25:])])
    for start, n in ((0, 10), (7, 11), (20, 12), (31, 9)):
        sl = pa.array(texts).slice(start, n)
        assert sl.offset == start
        ids = np.arange(start, start + n)
        want = _canon_tdtf(batch_term_doc_tf_py(ids, np.asarray(texts[start:start + n], object)))
        assert _canon_tdtf(batch_term_doc_tf(ids, sl)) == want
        assert _canon_tdtf(batch_term_doc_tf_pos(ids, sl)) == want
        assert _canon_tdtf(batch_term_doc_tf(ids, col.slice(start, n))) == want


def test_arrow_tokenize_kernel_ascii_batches():
    """An all-ASCII batch folds case in its byte table and skips the
    Unicode lowering; one non-ASCII doc sends its whole batch down the
    Unicode path. Both equal ``tokenize_text``."""
    every = "".join(map(chr, range(128)))
    ascii_texts = [every, every[::-1], "Hello WORLD foo_Bar9 Z@a[z`A{", "", " QQ "]
    _check_all_variants(np.arange(len(ascii_texts)), ascii_texts)
    mixed = ascii_texts + ["İSTANBUL İx Çağ ÉTÉ"]
    _check_all_variants(np.arange(len(mixed)), mixed)
    sl = pa.array(mixed).slice(2, 3)  # an ASCII slice of a mixed buffer
    want = _canon_tdtf(batch_term_doc_tf_py(np.arange(3), np.asarray(mixed[2:5], object)))
    assert _canon_tdtf(batch_term_doc_tf(np.arange(3), sl)) == want


def test_batch_term_codes_keeps_strings_per_vocabulary_entry():
    """Postings come back as codes into the batch vocabulary, which holds
    each distinct term once."""
    texts = pa.array(["a b a c", "b b d", "a"])
    codes, vocab, doc_ids, tfs, dls, pos = batch_term_codes(np.array([10, 20, 30]), texts)
    assert pos is None and len(vocab) == len(set(vocab.to_pylist())) == 4
    got = sorted(zip(vocab.take(pa.array(codes)).to_pylist(), doc_ids.tolist(),
                     tfs.tolist(), dls.tolist()))
    assert got == [("a", 10, 2, 4), ("a", 30, 1, 1), ("b", 10, 1, 4),
                   ("b", 20, 2, 3), ("c", 10, 1, 4), ("d", 20, 1, 3)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                        max_size=60),
                min_size=1, max_size=8))
def test_arrow_tokenize_kernel_property(texts):
    _check_all_variants(np.arange(len(texts)), texts)


def test_tokenizer_refuses_a_null_text():
    with pytest.raises(ValueError, match="null text at row 1"):
        batch_term_doc_tf(np.arange(3), pa.array(["a", None, "b"]))


# --- a null text row fails the build with a clear error ----------------------

def _write(path, table):
    pq.write_table(table, path)
    return path


def test_build_index_names_the_null_text_row(tmp_path):
    from archivesspace_virgo_ray.index.build import BuildConfig, build_index

    src = _write(str(tmp_path / "src.parquet"), pa.table({
        "repo": ["r", "r"], "path": ["a.py", "b.py"], "commit": ["c1", "c1"],
        "lang": ["py", "py"], "content": ["def main", None]}))
    with pytest.raises(ValueError, match=r"text column 'content' is null in the "
                       r"row with repo='r', path='b.py', commit='c1'"):
        build_index(src, str(tmp_path / "idx"), BuildConfig(n_shards=2, n_buckets=2))


def test_add_documents_names_the_null_text_row(tmp_path, ray_session):
    from archivesspace_virgo_ray.index.build import BuildConfig, build_index
    from archivesspace_virgo_ray.index.query import LocalSearcher
    from archivesspace_virgo_ray.index.update import add_documents

    cfg = lambda: BuildConfig(n_shards=2, n_buckets=2, text_col="text",  # noqa: E731
                              id_col="doc_id", meta_cols=())
    idx = str(tmp_path / "idx")
    build_index(_write(str(tmp_path / "base.parquet"), pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()), "text": ["alpha", "beta"]})),
        idx, cfg())
    before = LocalSearcher(idx).search("alpha beta", 5)
    delta = _write(str(tmp_path / "delta.parquet"), pa.table(
        {"doc_id": pa.array([3, 4, 5], pa.int64()), "text": ["gamma", None, None]}))
    with pytest.raises(ValueError, match="text column 'text' is null in the row with doc_id=4"):
        add_documents(delta, idx, cfg())
    assert LocalSearcher(idx).search("alpha beta", 5) == before
    assert not os.path.exists(os.path.join(idx, "_docs", "gen=0001"))


def test_null_text_above_the_size_rule_raises_the_value_error(
        tmp_path, ray_session, monkeypatch):
    """Above the size rule the batches run as Ray Data tasks: the caller
    still gets the ValueError itself, not Ray's task-error wrapper."""
    from archivesspace_virgo_ray.index import build
    from archivesspace_virgo_ray.index.update import add_documents

    cfg = lambda: build.BuildConfig(n_shards=2, n_buckets=2,  # noqa: E731
                                    text_col="text", id_col="doc_id",
                                    meta_cols=())
    idx = str(tmp_path / "idx")
    build.build_index(_write(str(tmp_path / "base.parquet"), pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()), "text": ["alpha", "beta"]})),
        idx, cfg())
    monkeypatch.setattr(build, "_SMALL_SOURCE_ROWS", 0)
    bad = _write(str(tmp_path / "bad.parquet"), pa.table(
        {"doc_id": pa.array([3, 4], pa.int64()), "text": ["gamma", None]}))
    msg = "text column 'text' is null in the row with doc_id=4"
    with pytest.raises(ValueError, match=msg) as built:
        build.build_index(bad, str(tmp_path / "idx2"), cfg())
    with pytest.raises(ValueError, match=msg) as added:
        add_documents(bad, idx, cfg())
    assert type(built.value) is ValueError
    assert type(added.value) is ValueError


# --- the ident analyzer's identifier split ----------------------------------

def test_ident_pretokenize_scalar_arrow_equivalent():
    """The scalar and Arrow identifier-split rewrites are the same function
    (RE2 / re agree on these patterns: left-to-right, non-overlapping)."""
    import pyarrow as pa

    from archivesspace_virgo_ray.functions.tokenize import (
        ident_pretokenize,
        ident_pretokenize_arrow,
    )

    cases = [
        "keyAgg rowScan theA aAgg part",
        "getHTTPResponse foo_bar x",
        "HTTPServer2 a2B __lead trail__ s",
        "",
        "plain lower words only",
        "ALLCAPS MixedCASEToken x9Y",
    ]
    got = ident_pretokenize_arrow(pa.array(cases, pa.string())).to_pylist()
    assert got == [ident_pretokenize(s) for s in cases]


def test_ident_pretokenize_inverts_camel_pairing():
    """Round-trip property the bm25_ident_topk oracle rests on: pairing
    adjacent lowercase tokens into camel compounds, then splitting, yields
    the original token stream."""
    from archivesspace_virgo_ray.functions.tokenize import (
        TOKEN_RE,
        ident_pretokenize,
    )

    for text in ["key agg row scan slow", "a b c", "single", "x y"]:
        toks = TOKEN_RE.findall(text)
        comp = [
            toks[i] + toks[i + 1][0].upper() + toks[i + 1][1:]
            if i + 1 < len(toks) else toks[i]
            for i in range(0, len(toks), 2)
        ]
        back = TOKEN_RE.findall(ident_pretokenize(" ".join(comp)).lower())
        assert back == toks
