"""Randomized conformance: on random small corpora and random queries, the
engine must stay rank-identical (and bit-identical in score) to the oracle —
including through a random base/delta split with incremental add."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import LocalSearcher
from archivesspace_virgo_ray.index.update import add_documents
from archivesspace_virgo_ray.oracle import OracleIndex

VOCAB = ["aa", "bb", "cc", "dd", "ee", "the", "x1", "y2", "z3", "needle_q"]


def _random_corpus(rng, n_docs):
    docs = []
    for i in range(n_docs):
        n_tok = rng.integers(1, 40)
        toks = rng.choice(VOCAB, size=n_tok, p=_zipf(len(VOCAB)))
        docs.append(" ".join(toks))
    return pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )


def _zipf(n):
    p = 1.0 / np.arange(1, n + 1)
    return p / p.sum()


QUERIES = ["the", "aa bb", "x1 y2 z3", "needle_q", "cc the dd", "absent_term"]


@pytest.mark.parametrize("seed", [11, 22, 33, 44])
def test_fuzz_rank_identity(seed, tmp_path, ray_session):
    rng = np.random.default_rng(seed)
    n_docs = int(rng.integers(20, 150))
    t = _random_corpus(rng, n_docs)
    src = str(tmp_path / "c.parquet")
    pq.write_table(t, src)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        n_shards=int(rng.integers(1, 4)),
        n_buckets=int(rng.integers(1, 5)),
        text_col="text",
        id_col="doc_id",
        meta_cols=(),
        batch_size=int(rng.integers(8, 64)),
    )
    build_index(src, idx, cfg, resume=False)
    oracle = OracleIndex(t["doc_id"].to_pylist(), t["text"].to_pylist())
    s = LocalSearcher(idx)
    for q in QUERIES:
        k = int(rng.integers(1, 15))
        expect = oracle.score_query(q, k)
        got = s.search(q, k)
        assert [d for d, _ in got] == [d for d, _ in expect], (seed, q, k)
        assert [x for _, x in got] == [x for _, x in expect], (seed, q, k)


@pytest.mark.parametrize("seed", [7, 8])
def test_fuzz_incremental_matches_union(seed, tmp_path, ray_session):
    rng = np.random.default_rng(seed)
    n_docs = int(rng.integers(40, 120))
    t = _random_corpus(rng, n_docs)
    split = int(rng.integers(1, n_docs - 1))
    pq.write_table(t.slice(0, split), str(tmp_path / "base.parquet"))
    pq.write_table(t.slice(split), str(tmp_path / "delta.parquet"))
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(n_shards=2, n_buckets=2, text_col="text", id_col="doc_id",
                      meta_cols=(), batch_size=32)
    build_index(str(tmp_path / "base.parquet"), idx, cfg, resume=False)
    add_documents(str(tmp_path / "delta.parquet"), idx, cfg)
    oracle = OracleIndex(t["doc_id"].to_pylist(), t["text"].to_pylist())
    s = LocalSearcher(idx)
    for q in QUERIES:
        expect = oracle.score_query(q, 10)
        got = s.search(q, 10)
        assert [d for d, _ in got] == [d for d, _ in expect], (seed, q)
        assert [x for _, x in got] == [x for _, x in expect], (seed, q)


def test_file_layout_invariance(tmp_path, ray_session):
    """Same corpus split into different parquet file layouts must produce a
    byte-identical index (blocks/batches never leak into segment content)."""
    import os

    from archivesspace_virgo_ray.corpus import write_corpus

    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    write_corpus(a_dir, 300, seed=42, rows_per_file=37)
    write_corpus(b_dir, 300, seed=42, rows_per_file=150)
    cfg = BuildConfig(n_shards=2, n_buckets=3, batch_size=64)
    idx_a, idx_b = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(a_dir, idx_a, cfg, resume=False)
    build_index(b_dir, idx_b, BuildConfig(n_shards=2, n_buckets=3, batch_size=512),
                resume=False)
    for seg in sorted(os.listdir(os.path.join(idx_a, "segments"))):
        for f in ("terms.parquet", "blocks.parquet", "docs.bin", "postings.bin"):
            x = open(os.path.join(idx_a, "segments", seg, f), "rb").read()
            y = open(os.path.join(idx_b, "segments", seg, f), "rb").read()
            assert x == y, f"{seg}/{f} differs across file layouts/batch sizes"


@pytest.mark.parametrize("seed", [5, 17, 29, 53])
def test_fuzz_lifecycle_matches_live_rebuild(seed, tmp_path, ray_session):
    """Random add/replace/delete/merge sequences: after a final merge the
    index must be rank-identical (scores bit-identical) to a from-scratch
    build over the LIVE corpus (latest versions minus deletes), with exact
    n_docs/total_len. This is the property the round-2 review bugs broke
    (shadowed double-subtract; unexpunged single-gen deletes)."""
    from archivesspace_virgo_ray.index.segments import read_stats
    from archivesspace_virgo_ray.index.update import (
        delete_documents,
        maintain,
        merge_segments,
        tiered_merge,
    )

    rng = np.random.default_rng(seed)
    cfg = BuildConfig(
        n_shards=int(rng.integers(1, 4)), n_buckets=int(rng.integers(1, 4)),
        text_col="text", id_col="doc_id", meta_cols=(), batch_size=32,
    )
    next_id = 0

    def fresh_docs(n):
        nonlocal next_id
        rows = []
        for _ in range(n):
            n_tok = int(rng.integers(1, 25))
            rows.append((next_id, " ".join(rng.choice(VOCAB, size=n_tok,
                                                      p=_zipf(len(VOCAB))))))
            next_id += 1
        return rows

    live: dict[int, str] = {}
    base = fresh_docs(int(rng.integers(10, 40)))
    live.update(dict(base))
    src = str(tmp_path / "base.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([d for d, _ in base], pa.int64()),
                             "text": pa.array([t for _, t in base])}), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, cfg, resume=False)

    for step in range(int(rng.integers(3, 7))):
        op = rng.choice(["add", "replace", "delete", "merge", "tiered",
                         "maintain"])
        if op == "add":
            batch = fresh_docs(int(rng.integers(1, 12)))
            live.update(dict(batch))
            p = str(tmp_path / f"add{step}.parquet")
            pq.write_table(pa.table(
                {"doc_id": pa.array([d for d, _ in batch], pa.int64()),
                 "text": pa.array([t for _, t in batch])}), p)
            add_documents(p, idx, cfg)
        elif op == "replace" and live:
            victims = rng.choice(sorted(live), size=min(3, len(live)), replace=False)
            batch = [(int(v), f"replaced {v} " + " ".join(
                rng.choice(VOCAB, size=int(rng.integers(1, 10))))) for v in victims]
            live.update(dict(batch))
            p = str(tmp_path / f"rep{step}.parquet")
            pq.write_table(pa.table(
                {"doc_id": pa.array([d for d, _ in batch], pa.int64()),
                 "text": pa.array([t for _, t in batch])}), p)
            add_documents(p, idx, cfg, on_conflict="replace")
        elif op == "delete" and live:
            victims = [int(v) for v in rng.choice(sorted(live),
                       size=min(2, len(live)), replace=False)]
            for v in victims:
                live.pop(v)
            delete_documents(idx, victims)
        elif op == "merge":
            merge_segments(idx, concurrency=2)
        elif op == "tiered":
            # merge_factor=2 so random tiny gens actually fold sometimes
            tiered_merge(idx, merge_factor=2, concurrency=2)
        elif op == "maintain":
            # low dead_ratio so the merge+vacuum branch actually fires
            maintain(idx, merge_factor=2, dead_ratio=0.01, concurrency=2)
    merge_segments(idx, concurrency=2)

    # rebuild over the live corpus
    ids = sorted(live)
    live_src = str(tmp_path / "live.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array([live[i] for i in ids])}), live_src)
    idx2 = str(tmp_path / "idx2")
    build_index(live_src, idx2, cfg, resume=False)

    s1, s2 = read_stats(idx), read_stats(idx2)
    assert (s1["n_docs"], s1["total_len"]) == (s2["n_docs"], s2["total_len"]), seed
    a, b = LocalSearcher(idx), LocalSearcher(idx2)
    for q in QUERIES + ["replaced"]:
        assert a.search(q, 12) == b.search(q, 12), (seed, q)


@pytest.mark.parametrize("seed", [7, 21])
def test_fuzz_filtered_conjunctive_vs_oracle(seed, tmp_path, ray_session):
    """Filtered (where=) and conjunctive (require_all) search must equal
    brute force: score every doc with the oracle, then apply the filter /
    AND-predicate and cut to k — across random corpora, metas and k."""
    import pyarrow.dataset as pads

    from archivesspace_virgo_ray.functions.tokenize import tokenize_text

    rng = np.random.default_rng(seed)
    n_docs = int(rng.integers(30, 120))
    t = _random_corpus(rng, n_docs)
    langs = rng.choice(["en", "fr", "de"], size=n_docs)
    t = t.append_column("lang", pa.array(langs.tolist(), pa.string()))
    src = str(tmp_path / "c.parquet")
    pq.write_table(t, src)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(n_shards=2, n_buckets=3, text_col="text",
                      id_col="doc_id", meta_cols=("lang",), batch_size=32)
    build_index(src, idx, cfg, resume=False)

    from archivesspace_virgo_ray.oracle import OracleIndex

    oracle = OracleIndex(t["doc_id"].to_pylist(), t["text"].to_pylist())
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    lang_of = dict(zip(t["doc_id"].to_pylist(), langs))
    s = LocalSearcher(idx)
    for q in QUERIES:
        terms = set(tokenize_text(q))
        full = oracle.score_query(q, n_docs)  # every scored doc, exact order
        for lang in ("en", "fr"):
            k = int(rng.integers(1, 12))
            want = [(d, sc) for d, sc in full if lang_of[d] == lang][:k]
            got = s.search(q, k, where=(pads.field("lang") == lang))
            assert got == want, (seed, q, lang)
        k = int(rng.integers(1, 12))
        want = [
            (d, sc) for d, sc in full
            if terms <= set(tokenize_text(texts[d]))
        ][:k]
        got = s.search(q, k, require_all=True)
        assert got == want, (seed, q, "conj")


# DuckDB references for pipelines/dedup.py near-dup operators and
# pipelines/curation.corpus_clean.
def _minhash_sql(
    threshold: float, bands: int, n_perm: int = 128, k_shingle: int = 3,
    seed: int = 7, final: str = "pairs", source: str = "documents",
) -> str:
    """SQL reproduction of dedup.minhash_pairs / minhash_dedup.

    Rebuilds, bit-for-bit against the engine: md5-derived shingle hashes
    (``dedup._shingle_hashes``), the seeded (a,b) permutation constants
    (inlined below), numpy's uint64-WRAPPING (a*h + b) %% Mersenne
    arithmetic, the per-band FNV-1a-style mix over perm order
    (``minhash_lsh_candidates.bandify``), banded candidate generation, and
    the exact shingle-Jaccard verify. The engine's MAX_BUCKET=256 skew cap
    is not modeled — bench-scale buckets are orders of magnitude smaller.
    ``final="components"`` adds a recursive-CTE transitive closure for the
    minhash_dedup (doc_id, rep_id) output.
    """
    # imported here, not at module top: the BM25 cases above must keep
    # collecting without the corpus operators
    from archivesspace_virgo_ray.pipelines.dedup import _perm_params
    from archivesspace_virgo_ray.pipelines.oracles.common import TOK_SQL

    a_c, b_c = _perm_params(n_perm, seed)
    perm_rows = ", ".join(
        f"({i}, {int(a_c[i])}, {int(b_c[i])})" for i in range(n_perm)
    )
    rpb = n_perm // bands
    u64 = "18446744073709551616"
    mers = "2305843009213693951"
    fnv_off = "14695981039346656037"
    fnv_prime = "1099511628211"
    body = f"""
toks AS (
  SELECT doc_id, list_filter({TOK_SQL}, x -> x <> '') AS t FROM {source}),
shing AS (
  SELECT doc_id, unnest(shingles) AS shingle FROM (
    SELECT doc_id,
           CASE WHEN len(t) >= {k_shingle}
                THEN list_distinct(list_transform(range(1, len(t) - {k_shingle - 2}),
                     i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))
                WHEN len(t) > 0 THEN [array_to_string(t, ' ')]
                ELSE [] END AS shingles
    FROM toks)),
hashed AS (
  SELECT doc_id, CAST(('0x' || substr(md5(shingle), 1, 16)) AS UBIGINT) AS h
  FROM shing
  UNION ALL
  SELECT doc_id, CAST(0 AS UBIGINT) FROM toks WHERE len(t) = 0),
perm(pid, pa, pb) AS (VALUES {perm_rows}),
sig AS (
  SELECT doc_id, pid,
         min(CAST(((CAST(pa AS HUGEINT) * CAST(h AS HUGEINT)) % {u64}
                   + CAST(pb AS HUGEINT)) % {u64} % {mers} AS UBIGINT)) AS s
  FROM hashed CROSS JOIN perm GROUP BY doc_id, pid),
band AS (
  SELECT doc_id, pid // {rpb} AS band_id, list(s ORDER BY pid) AS sigs
  FROM sig GROUP BY doc_id, pid // {rpb}),
bh AS (
  SELECT doc_id, band_id,
         list_reduce(list_prepend(CAST({fnv_off} AS UBIGINT), sigs),
           (acc, v) -> CAST(CAST((CAST(xor(acc, v) AS HUGEINT) * {fnv_prime})
                            % {u64} AS HUGEINT) AS UBIGINT)) AS h
  FROM band),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bh x JOIN bh y
    ON x.band_id = y.band_id AND x.h = y.h AND x.doc_id < y.doc_id),
sizes AS (
  SELECT t.doc_id, CAST(count(p.shingle) AS BIGINT) AS n
  FROM toks t LEFT JOIN shing p ON p.doc_id = t.doc_id GROUP BY t.doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, CAST(count(*) AS BIGINT) AS i
  FROM cand c
  JOIN shing p1 ON p1.doc_id = c.doc_a
  JOIN shing p2 ON p2.doc_id = c.doc_b AND p2.shingle = p1.shingle
  GROUP BY c.doc_a, c.doc_b),
jac AS (
  SELECT c.doc_a, c.doc_b,
         CASE WHEN sa.n = 0 AND sb.n = 0 THEN 1.0
              ELSE CAST(coalesce(i.i, 0) AS DOUBLE)
                   / (sa.n + sb.n - coalesce(i.i, 0)) END AS sim
  FROM cand c
  LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
  JOIN sizes sa ON sa.doc_id = c.doc_a
  JOIN sizes sb ON sb.doc_id = c.doc_b),
good AS (SELECT doc_a, doc_b, sim FROM jac WHERE sim >= {threshold})"""
    if final == "cte":
        return body
    if final == "pairs":
        return (
            "WITH " + body
            + "\nSELECT doc_a, doc_b, round(sim, 6) AS sim FROM good"
        )
    return (
        "WITH RECURSIVE " + body + f""",
sym AS (SELECT doc_a AS a, doc_b AS b FROM good
        UNION SELECT doc_b, doc_a FROM good),
reach(a, b) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a WHERE s.b <> r.a)
SELECT a AS doc_id, least(a, min(b)) AS rep_id FROM reach GROUP BY a"""
    )


def _corpus_clean_sql(min_tokens: int = 10) -> str:
    mh = _minhash_sql(threshold=0.7, bands=32, final="cte", source="docs2")
    return f"""
WITH RECURSIVE keep0 AS (
  SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)),
docs2 AS (
  SELECT d.doc_id, d.text FROM documents d JOIN keep0 k ON k.doc_id = d.doc_id),
{mh},
sym AS (SELECT doc_a AS a, doc_b AS b FROM good
        UNION SELECT doc_b, doc_a FROM good),
reach(a, b) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a WHERE s.b <> r.a),
comp AS (SELECT a AS doc_id, least(a, min(b)) AS rep_id FROM reach GROUP BY a),
dropped AS (SELECT doc_id FROM comp WHERE doc_id <> rep_id)
SELECT d.doc_id FROM docs2 d
WHERE d.doc_id NOT IN (SELECT doc_id FROM dropped)
  AND len(list_filter(string_split_regex(lower(d.text), '[^a-z0-9_]+'),
          x -> x <> '')) >= {min_tokens}
"""


def _simhash_pairs_sql() -> str:
    from archivesspace_virgo_ray.pipelines.oracles.common import TOK_SQL

    return f"""
WITH toks AS (
  SELECT doc_id, unnest(list_filter({TOK_SQL}, x -> x <> '')) AS term FROM documents),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS c FROM toks GROUP BY 1, 2),
hashed AS (SELECT doc_id, CAST(('0x' || substr(md5(term), 1, 16)) AS UBIGINT) AS h, c FROM tf),
bits AS (
  SELECT doc_id, b.bit,
         sum(CASE WHEN (h >> CAST(b.bit AS UBIGINT)) & 1 = 1 THEN c ELSE -c END) AS acc
  FROM hashed CROSS JOIN (SELECT unnest(range(64)) AS bit) b
  GROUP BY 1, 2),
sh0 AS (
  SELECT doc_id,
         CAST(CAST(sum(CASE WHEN acc > 0 THEN CAST(power(2, bit) AS HUGEINT) ELSE 0 END) AS HUGEINT) AS UBIGINT) AS simhash
  FROM bits GROUP BY doc_id),
sh AS (
  SELECT d.doc_id, CAST(coalesce(s.simhash, 0) AS UBIGINT) AS simhash
  FROM documents d LEFT JOIN sh0 s USING (doc_id)),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id)
SELECT doc_a, doc_b, hamming FROM pairs WHERE hamming <= 3
"""


@pytest.mark.parametrize("seed", [5, 17])
def test_fuzz_near_dup_oracles(seed, tmp_path, ray_session):
    """Engine minhash pairs / clusters / simhash pairs vs their DuckDB SQL
    reproductions on adversarial corpora: empty docs, sub-shingle docs,
    exact-dup piles, near-dups, punctuation-only docs."""
    import duckdb
    import pandas as pd

    from archivesspace_virgo_ray.pipelines.dedup import (
        minhash_dedup,
        minhash_pairs,
        simhash_near_dups,
    )

    rng = np.random.default_rng(seed)
    vocab = ["tok%d" % i for i in range(30)] + ["the", "data", "x_1"]
    rows = []
    did = 0

    def add(text):
        nonlocal did
        rows.append({"doc_id": did, "text": text})
        did += 1

    base = " ".join(rng.choice(vocab, size=25))
    add(base)
    add(base)  # exact dup
    add(base + " extra_tok")  # near dup
    add("")  # empty
    add("")  # second empty (must pair with the first, jaccard 1.0)
    add("one")  # < k tokens
    add("two words")
    add("!!! ??? ...")  # punctuation-only → zero tokens
    for _ in range(int(rng.integers(10, 25))):
        add(" ".join(rng.choice(vocab, size=int(rng.integers(1, 30)))))

    pdf = pd.DataFrame(rows)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(pdf, preserve_index=False), src)
    import ray.data

    ds = ray.data.read_parquet(src)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{src}'")

    def norm(df, cols):
        df = df[cols].copy()
        for c in cols:
            if df[c].dtype != object:
                df[c] = df[c].astype(np.int64) if c != "sim" else df[c].round(6)
        return df.sort_values(cols, ignore_index=True)

    # minhash pairs
    got = minhash_pairs(ds, threshold=0.5, n_perm=128, bands=32)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    got["sim"] = got["sim"].round(6)
    exp = con.execute(_minhash_sql(threshold=0.5, bands=32, final="pairs")).df()
    pd.testing.assert_frame_equal(
        norm(got, ["doc_a", "doc_b", "sim"]), norm(exp, ["doc_a", "doc_b", "sim"])
    )
    assert {(3, 4)} <= set(zip(got["doc_a"], got["doc_b"]))  # empty-empty pair

    # minhash clusters
    gotc = minhash_dedup(ds, threshold=0.5, n_perm=128, bands=32)
    gotc = gotc.to_pandas() if hasattr(gotc, "to_pandas") else gotc
    expc = con.execute(_minhash_sql(threshold=0.5, bands=32, final="components")).df()
    pd.testing.assert_frame_equal(
        norm(gotc, ["doc_id", "rep_id"]), norm(expc, ["doc_id", "rep_id"])
    )

    # simhash pairs
    gots = simhash_near_dups(ds, max_hamming=3)
    gots = gots.to_pandas() if hasattr(gots, "to_pandas") else gots
    exps = con.execute(_simhash_pairs_sql()).df()
    pd.testing.assert_frame_equal(
        norm(gots, ["doc_a", "doc_b", "hamming"]),
        norm(exps, ["doc_a", "doc_b", "hamming"]),
    )


@pytest.mark.parametrize("seed", [7, 29])
def test_fuzz_curation_and_snippet_oracles(seed, tmp_path, ray_session):
    """corpus_clean and the snippet SQL vs their DuckDB reproductions on
    corpora with uppercase, punctuation runs, digits and dup piles."""
    import duckdb
    import pandas as pd

    from archivesspace_virgo_ray.index.snippets import make_snippet
    from archivesspace_virgo_ray.pipelines.curation import corpus_clean

    rng = np.random.default_rng(seed)
    words = ["Alpha", "beta", "GAMMA_2", "delta", "x9", "The", "mix-3"]
    seps = [" ", "  ", ", ", "! ", " -- ", "\n", "..."]
    rows = []

    def rand_text(n):
        parts = []
        for j in range(n):
            parts.append(str(rng.choice(words)))
            parts.append(str(rng.choice(seps)))
        return "".join(parts).rstrip()

    did = 0
    for _ in range(int(rng.integers(15, 30))):
        rows.append({"doc_id": did, "text": rand_text(int(rng.integers(0, 40)))})
        did += 1
    # exact dup pile + a near dup + a short doc
    rows.append({"doc_id": did, "text": rows[0]["text"]}); did += 1
    rows.append({"doc_id": did, "text": rows[0]["text"]}); did += 1
    rows.append({"doc_id": did, "text": rows[1]["text"] + " tail"}); did += 1
    rows.append({"doc_id": did, "text": "tiny"}); did += 1

    pdf = pd.DataFrame(rows)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(pdf, preserve_index=False), src)
    import ray.data

    ds = ray.data.read_parquet(src)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{src}'")

    got = corpus_clean(ds, min_tokens=10, near_threshold=0.7,
                       n_perm=128, bands=32).to_pandas()
    exp = con.execute(_corpus_clean_sql(min_tokens=10)).df()
    assert sorted(got["doc_id"]) == sorted(exp["doc_id"].astype(int))

    # snippet reconstruction: python make_snippet vs the SQL fragment's
    # reconstruction semantics, via a direct per-doc SQL evaluation
    qtext = "alpha gamma_2 x9"
    sql = f"""
    WITH dtx AS (
      SELECT doc_id, text,
             regexp_extract_all(text, '[A-Za-z0-9_]+') AS toks,
             regexp_extract_all(text, '[^A-Za-z0-9_]+') AS seps,
             regexp_matches(text, '^[^A-Za-z0-9_]') AS lead_sep,
             regexp_matches(text, '[^A-Za-z0-9_]$') AS trail_sep
      FROM documents),
    win AS (
      SELECT doc_id, toks, seps, lead_sep, trail_sep, text,
             list_transform(toks, x -> lower(x)) AS lowtoks,
             len(toks) AS n, least(20, len(toks)) AS w,
             ['alpha', 'gamma_2', 'x9'] AS qt
      FROM dtx),
    starts AS (
      SELECT doc_id, unnest(range(1, n - w + 2)) AS s, n, w, qt, lowtoks
      FROM win WHERE n > 0),
    scored AS (
      SELECT doc_id, s,
             len(list_distinct(list_filter(list_slice(lowtoks, s, s + w - 1),
                 x -> list_contains(qt, x)))) AS dh,
             len(list_filter(list_slice(lowtoks, s, s + w - 1),
                 x -> list_contains(qt, x))) AS th
      FROM starts),
    best AS (
      SELECT doc_id, s FROM (
        SELECT doc_id, s, row_number() OVER (PARTITION BY doc_id
               ORDER BY dh DESC, th DESC, s ASC) AS rn FROM scored)
      WHERE rn = 1)
    SELECT v.doc_id,
      CASE WHEN v.n = 0 THEN substr(v.text, 1, 160)
      ELSE
        (CASE WHEN b.s > 1 OR v.lead_sep THEN '… ' ELSE '' END)
        || array_to_string(list_transform(range(b.s, b.s + v.w), i ->
             (CASE WHEN list_contains(v.qt, v.lowtoks[i])
                   THEN '**' || v.toks[i] || '**' ELSE v.toks[i] END)
             || (CASE WHEN i < b.s + v.w - 1
                      THEN v.seps[i + CASE WHEN v.lead_sep THEN 1 ELSE 0 END]
                      ELSE '' END)), '')
        || (CASE WHEN b.s + v.w - 1 < v.n OR v.trail_sep THEN ' …' ELSE '' END)
      END AS snippet
    FROM win v LEFT JOIN best b ON b.doc_id = v.doc_id
    """
    sql_snips = dict(
        zip(*(lambda d: (d["doc_id"].astype(int), d["snippet"]))(
            con.execute(sql).df()))
    )
    for r in rows:
        assert sql_snips[r["doc_id"]] == make_snippet(r["text"], qtext), r


@pytest.mark.parametrize("seed", [13, 37])
def test_fuzz_min_match_vs_oracle(seed, tmp_path, ray_session):
    """mm (minimum-should-match) through the POOL path must equal brute
    force: oracle-score every doc, keep docs matching >= m distinct query
    terms, cut to k — across random corpora, m in 1..n_terms+1."""
    from archivesspace_virgo_ray.functions.tokenize import tokenize_text
    from archivesspace_virgo_ray.index.query import bm25_topk

    rng = np.random.default_rng(seed)
    n_docs = int(rng.integers(30, 120))
    t = _random_corpus(rng, n_docs)
    src = str(tmp_path / "c.parquet")
    pq.write_table(t, src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, BuildConfig(
        n_shards=2, n_buckets=3, text_col="text", id_col="doc_id",
        meta_cols=(), batch_size=32), resume=False)
    oracle = OracleIndex(t["doc_id"].to_pylist(), t["text"].to_pylist())
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    for q in ["aa bb cc", "the x1 y2 z3", "dd ee absent_term"]:
        terms = set(tokenize_text(q))
        full = oracle.score_query(q, n_docs)
        for m in range(1, len(terms) + 2):
            k = int(rng.integers(1, 12))
            want = [
                (d, sc) for d, sc in full
                if len(terms & set(tokenize_text(texts[d]))) >= m
            ][:k]
            qt = pa.table({
                "query_id": pa.array([0], pa.int64()),
                "text": pa.array([q], pa.string()),
                "min_match": pa.array([m], pa.int32()),
                "k": pa.array([k], pa.int32()),
            })
            out = bm25_topk(idx, qt).to_pandas()
            got = list(zip(out["doc_id"], out["score"]))
            assert got == want, (seed, q, m, k)
