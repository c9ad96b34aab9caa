"""Code-aware tokenizer kernels.

The reference delegates tokenization to Solr's dynamic ``*_text`` /
``*_tsearch`` fields (ASpaceObject.java:253, aspace-solr-v3-to-v4.xsl:9-24);
here it is implemented from scratch. Tokenization rule (kept deliberately
SQL-expressible so DuckDB oracles can reproduce it):

    lowercase the text, tokens are maximal runs of ``[a-z0-9_]``.

DuckDB equivalent::

    unnest(string_split_regex(lower(text), '[^a-z0-9_]+'))   -- drop '' tokens

All kernels are batch-oriented: one call per Arrow batch, the inner loop is a
compiled-regex ``findall`` per document (documents are large, so the per-row
C-regex call dominates, not Python overhead), and the (doc, term) -> tf
aggregation is a vectorized pandas groupby.
"""

from __future__ import annotations

import re

import numpy as np

TOKEN_RE = re.compile(r"[a-z0-9_]+")


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
    """Arrow tokenize: (doc_ord per token, dict codes per token, vocab
    StringArray). The hot path of the index build — ``utf8_lower`` +
    ``split_pattern_regex`` + ``dictionary_encode`` all run as C++ kernels,
    never materializing per-token Python strings (the old findall/factorize
    kernel spent ~80% of build wall-time here at 100k docs).

    Token equivalence with ``tokenize_text`` (str.lower + findall) is
    property-tested (tests/test_text_kernels.py). Lowercasing differences
    between CPython (FULL Unicode case mapping) and Arrow's ``utf8_lower``
    (simple mapping) can only change tokens for characters whose lowercase
    lands in ``[a-z0-9_]``; the one divergent such character is U+0130
    LATIN CAPITAL I WITH DOT ABOVE (full: 'i'+U+0307, simple: 'i'), which is
    normalized to the full mapping before the Arrow kernel runs."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()  # zero-copy view when single-chunk
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(list(texts), pa.string())
    arr = pc.replace_substring(arr, pattern="İ", replacement="i̇")
    tok = pc.split_pattern_regex(pc.utf8_lower(arr), "[^a-z0-9_]+")
    flat = pc.list_flatten(tok)
    lens_all = pc.list_value_length(tok).to_numpy(zero_copy_only=False).astype(np.int64)
    doc_ord_all = np.repeat(np.arange(len(texts), dtype=np.int64), lens_all)
    # split yields '' at leading/trailing separator boundaries — drop them
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    d = pc.dictionary_encode(flat)
    codes = np.asarray(d.indices, dtype=np.int64)
    return doc_ord_all[nonempty], codes[nonempty], d.dictionary


def batch_term_doc_tf(
    doc_ids: np.ndarray, texts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a batch of documents into (term, doc_id, tf, dl) arrays.

    ``dl`` (document length in tokens) is computed here because a document is
    wholly contained in one batch — no later join against a doc-length table
    is ever needed (it rides along with each posting).

    Returns (terms: object ndarray, doc_ids: int64, tfs: int64, dls: int64),
    one row per distinct (doc, term). Row ORDER is unspecified (consumers
    sort or aggregate); the row SET is the contract.
    """
    doc_ord, codes, vocab = _flat_tokens_arrow(texts)
    if len(codes) == 0:
        e = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=object), e, e, e
    lens = np.bincount(doc_ord, minlength=len(texts)).astype(np.int64)
    nvocab = np.int64(len(vocab))
    key = doc_ord * nvocab + codes
    uniq_key, tf = np.unique(key, return_counts=True)
    out_doc_ord = uniq_key // nvocab
    out_code = uniq_key % nvocab
    doc_ids_arr = np.asarray(doc_ids, dtype=np.int64)
    vocab_np = np.asarray(vocab.to_pylist(), dtype=object)
    return (
        vocab_np[out_code],
        doc_ids_arr[out_doc_ord],
        tf.astype(np.int64),
        lens[out_doc_ord],
    )


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
    """``batch_term_doc_tf`` + per-posting token positions.

    Returns (terms, doc_ids, tfs, dls, pos_bytes) where ``pos_bytes`` is an
    Arrow BinaryArray: posting i's ascending in-doc positions, delta+varbyte
    encoded (``postings.encode_position_deltas`` layout — the exact bytes
    that land in the segment's positions stream). The (term, doc, tf, dl)
    outputs are identical to ``batch_term_doc_tf`` (same key order).
    """
    from ..index.postings import position_bytes_array

    doc_ord, codes, vocab = _flat_tokens_arrow(texts)
    total = len(codes)
    if total == 0:
        import pyarrow as pa

        e = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=object), e, e, e, pa.array([], pa.binary())
    lens = np.bincount(doc_ord, minlength=len(texts)).astype(np.int64)
    doc_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    pos_in_doc = np.arange(total, dtype=np.int64) - doc_starts[doc_ord]
    nvocab = np.int64(len(vocab))
    key = doc_ord * nvocab + codes
    # stable sort: within a (doc, term) group positions stay ascending
    order = np.argsort(key, kind="stable")
    sk = key[order]
    first = np.ones(len(sk), dtype=bool)
    first[1:] = sk[1:] != sk[:-1]
    starts = np.flatnonzero(first)
    tf = np.diff(np.concatenate([starts, [len(sk)]])).astype(np.int64)
    uniq_key = sk[starts]
    out_doc_ord = uniq_key // nvocab
    out_code = uniq_key % nvocab
    doc_ids_arr = np.asarray(doc_ids, dtype=np.int64)
    pos_arr = position_bytes_array(tf, pos_in_doc[order])
    vocab_np = np.asarray(vocab.to_pylist(), dtype=object)
    return (
        vocab_np[out_code],
        doc_ids_arr[out_doc_ord],
        tf,
        lens[out_doc_ord],
        pos_arr,
    )


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
