"""Unit tests for functions/text.py — incl. natural-sort key vs a direct
port of the reference comparator (StringNaturalCompare.java:8-145)."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from archivesspace_virgo_ray.functions.text import (
    call_number,
    natural_sort_key,
    nonfiling_indicator,
    normalize_id,
    normalize_library,
    parse_expression_year,
    published_date_buckets,
    ref_to_short_id,
    short_id_to_ref,
)
from archivesspace_virgo_ray.pipelines.oracles.common import TOK_SQL

# ---- oracle: straight port of the comparator for testing ONLY -------------


def _compare_right(s1, i1, s2, i2):
    bias = 0
    while True:
        a = s1[i1] if i1 < len(s1) else None
        b = s2[i2] if i2 < len(s2) else None
        if a is None and b is None:
            return bias
        if a is None:
            return bias if (b is not None and not b.isdigit()) else -1
        if b is None:
            return bias if (a is not None and not a.isdigit()) else 1
        if not a.isdigit() and not b.isdigit():
            return bias
        if not a.isdigit():
            return -1
        if not b.isdigit():
            return 1
        if a < b:
            if bias == 0:
                bias = -1
        elif a > b:
            if bias == 0:
                bias = 1
        i1 += 1
        i2 += 1


def _compare_left(s1, i1, s2, i2):
    while True:
        a = s1[i1] if i1 < len(s1) else None
        b = s2[i2] if i2 < len(s2) else None
        if a is None and b is None:
            return 0
        if a is None:
            return -1
        if b is None:
            return 1
        if not a.isdigit() and not b.isdigit():
            return 0
        if not a.isdigit():
            return -1
        if not b.isdigit():
            return 1
        if a < b:
            return -1
        if a > b:
            return 1
        i1 += 1
        i2 += 1


def strnatcmp(s1, s2):
    ai = bi = 0
    while True:
        ca = s1[ai] if ai < len(s1) else "\0"
        cb = s2[bi] if bi < len(s2) else "\0"
        while ca.isspace():
            ai += 1
            ca = s1[ai] if ai < len(s1) else "\0"
        while cb.isspace():
            bi += 1
            cb = s2[bi] if bi < len(s2) else "\0"
        if ca.isdigit() and cb.isdigit():
            if ca == "0" or cb == "0":
                r = _compare_left(s1, ai, s2, bi)
            else:
                r = _compare_right(s1, ai, s2, bi)
            if r != 0:
                return r
        if ca == "\0" and cb == "\0":
            return 0
        ca, cb = ca.upper(), cb.upper()
        if ca < cb:
            return -1
        if ca > cb:
            return 1
        ai += 1
        bi += 1


FIXTURE_STRINGS = [
    "Box 2", "Box 10", "Box 1", "box 3", "Oversize_flat_file_folder 14",
    "Oversize_flat_file_folder 2", "Box 02", "Box 002", "Box 10a", "Box 10b",
    "MS-123", "ms-0123", "X 1 2", "X 12", "", "  ", "a", "A", "0", "00", "1",
    "010", "10", "2x4", "2x40", "v1.2", "v1.10", "v01.2",
]


def test_natural_key_matches_comparator_on_fixtures():
    by_cmp = sorted(FIXTURE_STRINGS, key=functools.cmp_to_key(strnatcmp))
    keys = natural_sort_key(FIXTURE_STRINGS)
    by_key = [s for _, s in sorted(zip(keys, FIXTURE_STRINGS), key=lambda kv: kv[0])]
    # Compare by equivalence class ordering: keys must order pairs the same
    # way as the comparator (ties may permute — comparator ties are real ties)
    for i, a in enumerate(FIXTURE_STRINGS):
        for b in FIXTURE_STRINGS:
            c = strnatcmp(a, b)
            ka, kb = natural_sort_key([a])[0], natural_sort_key([b])[0]
            k = -1 if ka < kb else (1 if ka > kb else 0)
            assert c == k, f"order mismatch: {a!r} vs {b!r}: cmp={c} key={k}"
    assert len(by_cmp) == len(by_key)


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="abAB 019z-", max_size=12),
    st.text(alphabet="abAB 019z-", max_size=12),
)
def test_natural_key_matches_comparator_property(a, b):
    c = strnatcmp(a, b)
    ka, kb = natural_sort_key([a])[0], natural_sort_key([b])[0]
    k = -1 if ka < kb else (1 if ka > kb else 0)
    assert c == k, f"{a!r} vs {b!r}: cmp={c} key={k}"


def test_normalize_id():
    assert normalize_id(["ms 123-a/b"]).tolist() == ["MS123AB"]


def test_call_number():
    out = call_number(["MSS", None], ["123", "9"], [None, None])
    assert out.tolist() == ["MSS-123", "9"]


def test_short_id_codec_roundtrip():
    refs = [
        "/repositories/3/resources/754",
        "/repositories/1/accessions/2",
        "/repositories/2/top_containers/99",
        "bogus",
    ]
    short = ref_to_short_id(refs)
    assert short.tolist() == ["as:3r754", "as:1a2", "as:2c99", None]
    back = short_id_to_ref(short[:3])
    assert back.tolist() == refs[:3]


def test_year_parse_and_buckets():
    years = parse_expression_year(["1994", "1907-1994", "circa 1900", None])
    assert years.tolist() == [1994, 1994, -1, -1]
    buckets = published_date_buckets(np.array([1994, 2025, -1]), now_year=2026)
    assert buckets[0] == ["Last 50 years"]
    assert buckets[1] == ["Last 50 years", "Last 10 years", "Last 3 years", "Last 12 months"]
    assert buckets[2] == ["More than 50 years ago"]  # reference's -1 behavior


def test_nonfiling():
    assert nonfiling_indicator(["The X", "A Y", "Z", None]).tolist() == ["4", "2", "0", "0"]


def test_library_map():
    out = normalize_library(
        ["University of Virginia, Law Library",
         "Albert and Shirley Small Special Collections Library", "Nope"]
    )
    assert out.tolist() == ["Law School", "Special Collections", None]


def test_is_unique_virgo_id():
    from archivesspace_virgo_ray.functions.text import is_unique_virgo_id

    assert is_unique_virgo_id("MSS16152")
    assert is_unique_virgo_id("RG_21")
    assert not is_unique_virgo_id("MSS 123")   # space
    assert not is_unique_virgo_id("a/b")       # slash
    assert not is_unique_virgo_id("XYZ99")     # unknown prefix


def test_redact_pii_batch_patterns_and_counts():
    import pandas as pd

    from archivesspace_virgo_ray.pipelines.textstats import redact_pii_batch

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [
            "mail a.b+c@x-corp.io and 192.168.0.1 now",
            "ssn 123-45-6789 phone 555-867-5309 end",
            "nothing here",
        ],
    })
    out = redact_pii_batch(df)
    assert out["redacted"][0] == "mail <EMAIL> and <IP> now"
    assert out["redacted"][1] == "ssn <SSN> phone <PHONE> end"
    assert out["redacted"][2] == "nothing here"
    assert out["n_redactions"].tolist() == [2, 2, 0]


def test_unigram_logprob_matches_hand_model(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.pipelines.textstats import unigram_logprob

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["a a b", "b c", ""],
    })
    out = unigram_logprob(ray.data.from_pandas(df)).to_pandas()
    out = out.sort_values("doc_id", ignore_index=True)
    # corpus: a=2 b=2 c=1, total=5, V=3 → p(t) = (cf+1)/8
    pa_, pb, pc = 3 / 8, 3 / 8, 2 / 8
    exp0 = np.round((2 * np.log(pa_) + np.log(pb)) / 3, 6)
    exp1 = np.round((np.log(pb) + np.log(pc)) / 2, 6)
    assert out["avg_logprob"].tolist() == [exp0, exp1, 0.0]
    assert out["n_tokens"].tolist() == [3, 2, 0]
    # rarer tokens score lower on average
    assert exp1 < exp0


def test_normalize_text_batch():
    import pandas as pd

    from archivesspace_virgo_ray.pipelines.textstats import normalize_text_batch

    df = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["\t hello \x07world\x01  again \n", "café ok"],
    })
    out = normalize_text_batch(df)
    assert out["normalized"][0] == "hello world again"
    assert out["normalized"][1] == "café ok"  # NFC composes the accent
    assert out["n_chars_norm"].tolist() == [17, 7]


def test_bigram_partial_counts():
    import pandas as pd

    from archivesspace_virgo_ray.pipelines.textstats import bigram_partial

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b a b", "b a"]})
    out = bigram_partial(df).set_index("bigram")["n"].to_dict()
    assert out == {"a b": 2, "b a": 2}


# DuckDB references for the textstats kernels below (Gopher repetition
# counts, C4 line heuristics): the SQL restates each rule independently.
SQL_REPETITION_STATS = f"""
WITH base AS (
  SELECT doc_id, text, list_filter({TOK_SQL}, x -> x <> '') AS toksl
  FROM documents),
lstat AS (
  SELECT doc_id,
         len(list_filter(list_transform(string_split(text, chr(10)),
                                        x -> trim(x)), x -> x <> '')) AS n_lines,
         len(list_distinct(list_filter(list_transform(string_split(text, chr(10)),
                                                      x -> trim(x)), x -> x <> ''))) AS n_distinct
  FROM base),
tokpos AS (
  SELECT doc_id, unnest(toksl) AS term, generate_subscripts(toksl, 1) AS pos
  FROM base),
tokstat AS (
  SELECT doc_id, max(c) AS top_token_n, sum(c) AS n_tokens
  FROM (SELECT doc_id, term, count(*) AS c FROM tokpos GROUP BY doc_id, term)
  GROUP BY doc_id),
bg AS (
  SELECT doc_id,
         term || ' ' || lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS pair
  FROM tokpos
  QUALIFY lead(term) OVER (PARTITION BY doc_id ORDER BY pos) IS NOT NULL),
bgstat AS (
  SELECT doc_id, max(c) AS top_bigram_n, sum(c) AS n_bigrams
  FROM (SELECT doc_id, pair, count(*) AS c FROM bg GROUP BY doc_id, pair)
  GROUP BY doc_id)
SELECT b.doc_id,
       CAST(l.n_lines AS BIGINT) AS n_lines,
       CAST(l.n_lines - l.n_distinct AS BIGINT) AS n_dup_lines,
       CAST(coalesce(t.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(t.top_token_n, 0) AS BIGINT) AS top_token_n,
       CAST(coalesce(g.n_bigrams, 0) AS BIGINT) AS n_bigrams,
       CAST(coalesce(g.top_bigram_n, 0) AS BIGINT) AS top_bigram_n
FROM base b
JOIN lstat l ON l.doc_id = b.doc_id
LEFT JOIN tokstat t ON t.doc_id = b.doc_id
LEFT JOIN bgstat g ON g.doc_id = b.doc_id
"""


def test_repetition_batch_adversarial_vs_sql():
    """Engine kernel == DuckDB oracle on newlines, duplicate lines, tabs
    (trim is SPACE-only), bigram ties, empty and single-token docs."""
    import duckdb
    import pandas as pd

    from archivesspace_virgo_ray.pipelines.textstats import repetition_batch

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": [
            "same line\nsame line\n  same line  \nother",   # 3 dups after trim
            "a b a b a b",                                   # top bigram 'a b' x3
            "\tindent kept\nindent kept",                    # tab survives trim
            "",                                              # empty doc
            "solo",                                          # 1 token, 0 bigrams
            "x\n\n\n x \nx",                                 # blank lines dropped
        ],
    })
    got = repetition_batch(df).sort_values("doc_id", ignore_index=True)
    con = duckdb.connect()
    con.register("documents", df)
    want = con.execute(SQL_REPETITION_STATS).df().sort_values(
        "doc_id", ignore_index=True
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"), check_dtype=False
    )
    r1 = got[got["doc_id"] == 1].iloc[0]
    assert r1["n_lines"] == 4 and r1["n_dup_lines"] == 2
    r3 = got[got["doc_id"] == 3].iloc[0]
    assert r3["n_dup_lines"] == 0  # "\tindent kept" != "indent kept"
    r6 = got[got["doc_id"] == 6].iloc[0]
    assert r6["n_lines"] == 3 and r6["n_dup_lines"] == 2


SQL_C4_FILTERS = """
WITH linel AS (
  SELECT doc_id, text,
         list_filter(list_transform(string_split(text, chr(10)),
                                    x -> trim(x)), x -> x <> '') AS ls
  FROM documents)
SELECT doc_id,
       CAST(len(ls) AS BIGINT) AS n_lines,
       CAST(len(list_filter(ls,
           x -> substring(x, length(x), 1) IN ('.', '!', '?', '"')))
           AS BIGINT) AS n_terminal_lines,
       CAST(len(list_filter(ls,
           x -> len(list_filter(string_split_regex(x, '\\s+'),
                                w -> w <> '')) < 3))
           AS BIGINT) AS n_short_lines,
       contains(text, '{') AS has_brace,
       contains(lower(text), 'lorem ipsum') AS has_lorem,
       (NOT contains(text, '{') AND NOT contains(lower(text), 'lorem ipsum')
        AND len(ls) > 0) AS c4_keep
FROM linel
"""


def test_c4_signals_adversarial_vs_sql():
    """C4 signal kernel == DuckDB oracle on terminal punctuation variants,
    short lines, braces, lorem-ipsum casing, tabs inside lines."""
    import duckdb
    import pandas as pd

    from archivesspace_virgo_ray.pipelines.textstats import c4_signals_batch

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [
            'Good sentence.\nAlso fine!\nIs it?\nquoted"\nno ending',
            "tiny\nok line here\na\tb\tc tabs count",
            "function f() { return 1; }",
            "some LoReM IpSuM filler",
            "",
        ],
    })
    got = c4_signals_batch(df).sort_values("doc_id", ignore_index=True)
    con = duckdb.connect()
    con.register("documents", df)
    want = con.execute(SQL_C4_FILTERS).df().sort_values(
        "doc_id", ignore_index=True
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    r1 = got[got["doc_id"] == 1].iloc[0]
    assert r1["n_terminal_lines"] == 4 and r1["n_lines"] == 5
    r2 = got[got["doc_id"] == 2].iloc[0]
    assert r2["n_short_lines"] == 1  # 'tiny'; the tabbed line has 4 words
    assert not got[got["doc_id"] == 3].iloc[0]["c4_keep"]   # brace
    assert not got[got["doc_id"] == 4].iloc[0]["c4_keep"]   # lorem (cased)
    assert not got[got["doc_id"] == 5].iloc[0]["c4_keep"]   # empty


def test_stemmer_rules_and_sql_parity():
    """stem_token's rule chain matches its SQL CASE rendition on an
    adversarial token set (guards, *ss keeps, order of rules)."""
    import duckdb

    from archivesspace_virgo_ray.functions.tokenize import (
        STEM_SQL_CASE,
        stem_token,
    )

    toks = [
        "running", "sing", "bring", "parsed", "bed", "reds", "tables",
        "goes", "es", "class", "pass", "dogs", "as", "ss", "misses",
        "indexing", "indexed", "indexes", "index", "s", "ings", "sses",
    ]
    con = duckdb.connect()
    case = STEM_SQL_CASE.format(t="t")
    vals = ", ".join(f"('{t}')" for t in toks)
    sql = con.execute(
        f"SELECT t, {case} AS s FROM (VALUES {vals}) AS v(t)"
    ).fetchall()
    for t, s in sql:
        assert stem_token(t) == s, (t, stem_token(t), s)
    # spot semantics
    assert stem_token("tables") == "tabl" and stem_token("class") == "class"


def test_bigram_logprob_exact_small_corpus(ray_session):
    """Hand-computed bigram LM on a 3-doc corpus; empty doc scores 0."""
    import numpy as np
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.pipelines.textstats import bigram_logprob

    docs = pd.DataFrame({
        "doc_id": pd.Series([1, 2, 3], dtype=np.int64),
        "text": ["a b a b", "a b", ""],
    })
    out = bigram_logprob(ray.data.from_pandas(docs).repartition(2)) \
        .to_pandas().sort_values("doc_id", ignore_index=True)
    # corpus: tokens a=3,b=3 total=6 V=2; bigrams: 'a b'x3, 'b a'x1;
    # ctx: a->3, b->1
    import math
    p1a = math.log((3 + 1) / (6 + 2))
    p_ab = math.log((3 + 1) / (3 + 2))
    p_ba = math.log((1 + 1) / (1 + 2))
    d1 = (p1a + p_ab + p_ba + p_ab) / 4
    d2 = (p1a + p_ab) / 2
    assert out.loc[0, "avg_logprob"] == round(d1, 6)
    assert out.loc[1, "avg_logprob"] == round(d2, 6)
    assert out.loc[2, "avg_logprob"] == 0.0 and out.loc[2, "n_tokens"] == 0
