"""Code-aware tokenizer kernels.

The reference delegates tokenization to Solr's dynamic ``*_text`` /
``*_tsearch`` fields (ASpaceObject.java:253, aspace-solr-v3-to-v4.xsl:9-24);
here it is implemented from scratch. Tokenization rule (kept deliberately
SQL-expressible so DuckDB oracles can reproduce it):

    lowercase the text, tokens are maximal runs of ``[a-z0-9_]``.

DuckDB equivalent::

    unnest(string_split_regex(lower(text), '[^a-z0-9_]+'))   -- drop '' tokens

``tokenize_text`` (``str.lower`` + ``findall``) is the contract, used by the
oracle and the query side. The build tokenizes a whole Arrow batch at once
(``_flat_tokens_arrow``): Arrow lowercases, one byte table turns every
non-token byte into a space, Arrow splits and dictionary-encodes, and the
(doc, term) -> tf aggregation runs over integer keys in numpy. A batch's
postings come back as codes into its vocabulary (``batch_term_codes``):
Python string objects exist once per distinct term, never per posting.
"""

from __future__ import annotations

import re

import numpy as np

TOKEN_RE = re.compile(r"[a-z0-9_]+")

# byte -> itself for a token byte ([a-z0-9_]), else a space. Every byte of
# a multi-byte UTF-8 sequence is >= 0x80, so none of them is a token byte:
# mapping the bytes of lowercased UTF-8 text is exact, not an ASCII shortcut
_TOKEN_BYTES = np.full(256, ord(" "), np.uint8)
for _c in b"abcdefghijklmnopqrstuvwxyz0123456789_":
    _TOKEN_BYTES[_c] = _c
# the same, with A-Z folded to a-z: on ASCII text, lowering is a byte map
_ASCII_TOKEN_BYTES = _TOKEN_BYTES.copy()
for _c in b"ABCDEFGHIJKLMNOPQRSTUVWXYZ":
    _ASCII_TOKEN_BYTES[_c] = _c + 32


def tokenize_text(text: str) -> list[str]:
    """Tokenize one document. Single-source-of-truth used by oracle + engine."""
    return TOKEN_RE.findall(text.lower())


def token_counts_batch(texts: np.ndarray) -> np.ndarray:
    """Per-document token count for a batch of strings -> int64 array."""
    findall = TOKEN_RE.findall
    return np.fromiter(
        (len(findall(t.lower())) for t in texts), dtype=np.int64, count=len(texts)
    )


def _flat_tokens_arrow(texts) -> tuple[np.ndarray, np.ndarray, object]:
    """Arrow tokenize: (doc_ord per token, dict code per token, vocab
    StringArray), tokens in document order. No per-token Python object is
    made: ``utf8_lower``, the byte table (``_TOKEN_BYTES``, one ``np.take``
    over the values buffer), ``ascii_split_whitespace`` and
    ``dictionary_encode`` all run over whole buffers. RE2's
    ``split_pattern_regex`` on ``[^a-z0-9_]+`` gives the same split at
    about four times the cost. A batch whose bytes are all ASCII skips the
    Unicode lowering: ``_ASCII_TOKEN_BYTES`` folds A-Z in the same take
    (``str.lower`` maps no other ASCII character), and one ``max`` over the
    bytes costs far less than ``pc.string_is_ascii``.

    Token equivalence with ``tokenize_text`` is tested over every BMP code
    point and by property (tests/test_tokenize_kernel.py). CPython lowercases
    with the FULL Unicode case mapping, Arrow's ``utf8_lower`` with the
    simple one; they can only differ in tokens for characters whose
    lowercase lands in ``[a-z0-9_]``, and the one such character they map
    differently is U+0130 LATIN CAPITAL I WITH DOT ABOVE (full: 'i'+U+0307,
    simple: 'i'), rewritten to the full mapping first. A null text raises
    ValueError: it is no document, not an empty one."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()  # zero-copy view when single-chunk
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(list(texts), pa.string())
    if arr.null_count:
        raise ValueError("tokenize: null text at row "
                         f"{pc.index(pc.is_null(arr), True).as_py()}")
    offsets, data = _value_bytes(arr)
    if data.max(initial=0) < 0x80:
        mapped = np.take(_ASCII_TOKEN_BYTES, data)
    else:
        low = pc.utf8_lower(pc.replace_substring(arr, pattern="İ", replacement="i̇"))
        offsets, data = _value_bytes(low)
        mapped = np.take(_TOKEN_BYTES, data)
    spaced = pa.Array.from_buffers(
        arr.type, len(arr), [None, pa.py_buffer(offsets), pa.py_buffer(mapped)])
    tok = pc.ascii_split_whitespace(spaced)
    flat = pc.list_flatten(tok)
    lens_all = np.diff(value_offsets(tok))
    doc_ord_all = np.repeat(np.arange(len(arr), dtype=np.int64), lens_all)
    # the split yields '' at a leading or trailing space and for an empty
    # text — drop them
    nonempty = np.diff(value_offsets(flat)) > 0
    d = pc.dictionary_encode(flat)
    codes = np.asarray(d.indices, dtype=np.int64)
    return doc_ord_all[nonempty], codes[nonempty], d.dictionary


def _value_bytes(arr) -> tuple[np.ndarray, np.ndarray]:
    """(value offsets rebased to 0, the uint8 view of the values they
    span) of an Arrow string array."""
    offsets = value_offsets(arr)
    lo, hi = int(offsets[0]), int(offsets[-1])
    data = (np.frombuffer(arr.buffers()[2], np.uint8)[lo:hi] if hi > lo
            else np.empty(0, np.uint8))
    return offsets - offsets.dtype.type(lo), data


def value_offsets(arr) -> np.ndarray:
    """The ``len(arr) + 1`` value offsets of an Arrow string, binary or
    list array (a view of its offsets buffer; the array's own offset
    applied)."""
    import pyarrow as pa

    t = arr.type
    wide = (pa.types.is_large_string(t) or pa.types.is_large_binary(t)
            or pa.types.is_large_list(t))
    dtype = np.dtype(np.int64 if wide else np.int32)
    return np.frombuffer(arr.buffers()[1], dtype, count=len(arr) + 1,
                         offset=arr.offset * dtype.itemsize)


def batch_term_codes(doc_ids: np.ndarray, texts, positions: bool = False):
    """A batch's postings, one row per distinct (doc, term), with each
    term as a code into the batch's vocabulary:

        (codes, vocab, doc_ids, tfs, dls, pos)

    ``codes`` are int64 indexes into ``vocab`` (an Arrow StringArray),
    ``doc_ids``/``tfs``/``dls`` int64. ``dl`` (document length in tokens)
    is computed here because a document lies wholly in one batch, so no
    later join against a doc-length table is needed. ``pos`` is None
    unless ``positions``: then an Arrow BinaryArray, posting i's ascending
    in-doc positions delta+varbyte encoded (the bytes that land in the
    segment's positions stream, ``postings.encode_position_deltas``).
    Rows are in (doc, code) order; the row SET is the contract."""
    doc_ord, codes, vocab = _flat_tokens_arrow(texts)
    n_docs = len(doc_ids)
    lens = np.bincount(doc_ord, minlength=n_docs).astype(np.int64)
    nvocab = np.int64(max(len(vocab), 1))
    key = doc_ord * nvocab + codes
    pos = None
    if positions:
        from ..index.postings import position_bytes_array

        doc_starts = np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64)
        pos_in_doc = np.arange(len(key), dtype=np.int64) - doc_starts[doc_ord]
        # stable: within a (doc, term) group positions stay ascending
        order = np.argsort(key, kind="stable")
        sk = key[order]
        first = np.ones(len(sk), dtype=bool)
        first[1:] = sk[1:] != sk[:-1]
        starts = np.flatnonzero(first)
        tf = np.diff(np.append(starts, len(sk))).astype(np.int64)
        uniq_key = sk[starts]
        pos = position_bytes_array(tf, pos_in_doc[order])
    else:
        uniq_key, tf = np.unique(key, return_counts=True)
    out_doc_ord = uniq_key // nvocab
    return (uniq_key % nvocab, vocab,
            np.asarray(doc_ids, dtype=np.int64)[out_doc_ord],
            tf.astype(np.int64), lens[out_doc_ord], pos)


def _term_objects(codes: np.ndarray, vocab) -> np.ndarray:
    """Per-posting terms as an object array: one Python string per
    distinct term, gathered by code."""
    return np.asarray(vocab.to_pylist(), dtype=object)[codes]


def batch_term_doc_tf(
    doc_ids: np.ndarray, texts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a batch of documents into (term, doc_id, tf, dl) arrays:
    ``batch_term_codes`` with the terms as an object ndarray, for the
    corpus operators that want them (the index build keeps codes).
    Row ORDER is unspecified (consumers sort or aggregate); the row SET
    is the contract."""
    codes, vocab, ids, tfs, dls, _ = batch_term_codes(doc_ids, texts)
    return _term_objects(codes, vocab), ids, tfs, dls


def batch_term_doc_tf_py(
    doc_ids: np.ndarray, texts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference implementation over ``tokenize_text`` (str.lower + findall)
    — the single-source-of-truth tokenizer. Kept for the property test that
    pins the Arrow kernel's token equivalence; not used in the hot path."""
    import pandas as pd

    findall = TOKEN_RE.findall
    tok_lists = [findall(t.lower()) for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists))
    if lens.sum() == 0:
        e = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=object), e, e, e
    flat_terms = np.concatenate([np.asarray(t, dtype=object) for t in tok_lists if t])
    codes, uniq_terms = pd.factorize(flat_terms, sort=False)
    doc_ord = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    key = doc_ord * np.int64(len(uniq_terms)) + codes
    uniq_key, tf = np.unique(key, return_counts=True)
    out_doc_ord = uniq_key // len(uniq_terms)
    out_code = uniq_key % len(uniq_terms)
    doc_ids_arr = np.asarray(doc_ids, dtype=np.int64)
    return (
        np.asarray(uniq_terms, dtype=object)[out_code],
        doc_ids_arr[out_doc_ord],
        tf.astype(np.int64),
        lens[out_doc_ord],
    )


def batch_term_doc_tf_pos(
    doc_ids: np.ndarray, texts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, object]:
    """``batch_term_doc_tf`` + per-posting token positions: (terms,
    doc_ids, tfs, dls, pos_bytes), ``pos_bytes`` as ``batch_term_codes``
    gives them. The (term, doc, tf, dl) rows equal ``batch_term_doc_tf``'s."""
    codes, vocab, ids, tfs, dls, pos = batch_term_codes(doc_ids, texts, True)
    return _term_objects(codes, vocab), ids, tfs, dls, pos


def stable_hash_strings(values) -> np.ndarray:
    """Deterministic (cross-process, cross-run) uint64 hash of a string array.

    Used for term -> bucket routing; never use Python's salted ``hash()``.
    """
    import pandas as pd

    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


def stem_token(t: str) -> str:
    """Deterministic suffix-stripping stemmer (a Porter-lite analysis
    filter for the stemmed-field variant — Solr's EnglishMinimalStemFilter
    class of behavior). Rules are ordered and length-guarded so the SQL
    rendition (a CASE chain over the same conditions) matches bit-for-bit:

        *ing  (len>5)          -> strip 'ing'
        *ed   (len>4)          -> strip 'ed'
        *es   (len>4)          -> strip 'es'
        *s    (len>3, not *ss) -> strip 's'
    """
    n = len(t)
    if n > 5 and t.endswith("ing"):
        return t[:-3]
    if n > 4 and t.endswith("ed"):
        return t[:-2]
    if n > 4 and t.endswith("es"):
        return t[:-2]
    if n > 3 and t.endswith("s") and not t.endswith("ss"):
        return t[:-1]
    return t


STEM_SQL_CASE = (
    "CASE WHEN length({t}) > 5 AND {t} LIKE '%ing' "
    "THEN substr({t}, 1, length({t}) - 3) "
    "WHEN length({t}) > 4 AND {t} LIKE '%ed' "
    "THEN substr({t}, 1, length({t}) - 2) "
    "WHEN length({t}) > 4 AND {t} LIKE '%es' "
    "THEN substr({t}, 1, length({t}) - 2) "
    "WHEN length({t}) > 3 AND {t} LIKE '%s' AND {t} NOT LIKE '%ss' "
    "THEN substr({t}, 1, length({t}) - 1) "
    "ELSE {t} END"
)


# --- identifier (WordDelimiter-style) analysis filter ----------------------
# Source-code fields index compound identifiers: camelCase and snake_case
# names should match queries for their parts ("agg" finds "keyAgg",
# "key_agg"). This is Solr's WordDelimiterGraphFilter class of behavior,
# re-expressed as a PRE-tokenize text rewrite so the standard lowercasing
# tokenizer downstream stays unchanged: insert spaces at camel boundaries
# on the RAW text (case information is gone after lower()), then turn
# underscores into spaces. The scalar and Arrow forms are equivalence-
# pinned by test (same RE2/re semantics: left-to-right, non-overlapping,
# resume after the match).

_IDENT_CAMEL1 = re.compile(r"([a-z0-9])([A-Z])")    # fooBar   -> foo Bar
_IDENT_CAMEL2 = re.compile(r"([A-Z]+)([A-Z][a-z])")  # HTTPSrv -> HTTP Srv


def ident_pretokenize(text: str) -> str:
    """Scalar identifier-split rewrite (camel boundaries + underscores)."""
    t = _IDENT_CAMEL1.sub(r"\1 \2", text)
    t = _IDENT_CAMEL2.sub(r"\1 \2", t)
    return t.replace("_", " ")


def ident_pretokenize_arrow(col):
    """Arrow-native identifier-split rewrite (C++ RE2 kernels, zero Python
    per row) — the form analysis operators should use inside map_batches."""
    import pyarrow.compute as pc

    t = pc.replace_substring_regex(
        col, pattern=r"([a-z0-9])([A-Z])", replacement=r"\1 \2")
    t = pc.replace_substring_regex(
        t, pattern=r"([A-Z]+)([A-Z][a-z])", replacement=r"\1 \2")
    return pc.replace_substring(t, pattern="_", replacement=" ")


ANALYZERS = ("plain", "ident")


def apply_analyzer(name: str, text: str) -> str:
    """Scalar pre-tokenize analysis rewrite. ``plain`` is identity; ``ident``
    is the identifier splitter. Query paths apply the INDEX's recorded
    analyzer through this so user text matches what the build indexed."""
    if name == "plain" or not name:
        return text
    if name == "ident":
        return ident_pretokenize(text)
    raise ValueError(f"unknown analyzer {name!r} (known: {ANALYZERS})")


def apply_analyzer_arrow(name: str, col):
    """Arrow-native analyzer rewrite for build-side batches."""
    if name == "plain" or not name:
        return col
    if name == "ident":
        return ident_pretokenize_arrow(col)
    raise ValueError(f"unknown analyzer {name!r} (known: {ANALYZERS})")
