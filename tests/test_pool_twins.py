"""The query pool scores in process: one ``ShardWorker`` over every shard
and the ``TermStatsStore`` that plans for it, pinned at one marker.

Pinned here: the batch pass equals ``oracle.OracleIndex`` bit for bit; a
pool serves the state it pinned until ``get_pool`` refreshes it; a failed
refresh leaves no cached pool; a query worker imports neither Ray Data nor
pandas; and a process that only queries starts no Ray.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.functions.tokenize import tokenize_text
from archivesspace_virgo_ray.index import query
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import (
    LocalSearcher,
    _merge_topk_parts,
    _plan_batch,
    get_pool,
    shutdown_pools,
)
from archivesspace_virgo_ray.index.update import add_documents
from archivesspace_virgo_ray.oracle import OracleIndex

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WHERE = pads.field("lang") == "en"
MU = 2000.0
N_SHARDS = 4


@pytest.fixture(scope="module")
def corpus(sf_dir):
    return pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang"])


@pytest.fixture(scope="module")
def idx(tmp_path_factory, ray_session, sf_dir):
    out = str(tmp_path_factory.mktemp("twins") / "idx")
    build_index(os.path.join(sf_dir, "documents.parquet"), out,
                BuildConfig(n_shards=N_SHARDS, n_buckets=4, text_col="text",
                            id_col="doc_id", meta_cols=("lang",)),
                resume=False)
    return out


def _batch() -> pa.Table:
    """Plain, NOT, min_match, zero-hit and cursor rows in one table."""
    texts = ["the data model", "filter scan join", "sort merge table",
             "a", "key order", "zzzz nothing", "row data query",
             "window stream customer"]
    nots = [None, "scan", None, None, "sort", None, None, "stream"]
    mms = [None, None, 2, None, None, None, 3, None]
    return pa.table({
        "query_id": pa.array(np.arange(len(texts)) * 7 + 3, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "k": pa.array([5, 10, 3, 7, 20, 4, 6, 8], pa.int32()),
        "not_text": pa.array(nots, pa.string()),
        "min_match": pa.array(mms, pa.int32()),
    })


def _with_cursor(tbl: pa.Table, local: pa.Table) -> pa.Table:
    """``tbl`` plus cursor columns: row 0 resumes after its 2nd answer."""
    first = local.filter(pa.compute.equal(local["query_id"],
                                          tbl["query_id"][0]))
    cs = [None] * tbl.num_rows
    cd = [None] * tbl.num_rows
    cs[0] = round(first["score"][1].as_py(), 6)
    cd[0] = first["doc_id"][1].as_py()
    return (tbl.append_column("cursor_score", pa.array(cs, pa.float64()))
               .append_column("cursor_doc", pa.array(cd, pa.int64())))


def _local(index_dir: str, tbl: pa.Table, where=None, require_all=False):
    """The ``LocalSearcher`` path: plan, one in-process score, merge."""
    ls = LocalSearcher(index_dir)
    plan = _plan_batch(ls.store, tbl)
    part, _done = ls.worker.score(plan, where, require_all)
    return _merge_topk_parts(plan.queries, [part])


def _rankings(corpus: pa.Table, tbl: pa.Table, where=None,
              require_all=False, lmd_store=None):
    """Per row (query_id, k, [(doc_id, score)]): the unbounded
    ``OracleIndex`` ranking, restricted as the engine restricts it
    (filter, AND, NOT, mm, cursor). With ``lmd_store`` (a
    ``TermStatsStore``) each row is ranked by LM-Dirichlet(``MU``) over
    the oracle's postings instead, in the store's term order and rates."""
    ids = corpus["doc_id"].to_pylist()
    texts = corpus["text"].to_pylist()
    toks = {d: set(tokenize_text(t)) for d, t in zip(ids, texts)}
    allowed = None
    if where is not None:
        allowed = {d for d, lang in zip(ids, corpus["lang"].to_pylist())
                   if lang == "en"}
    oracle = OracleIndex(ids, texts)
    cols = set(tbl.column_names)
    out = []
    for i, (qid, text, k) in enumerate(zip(tbl["query_id"].to_pylist(),
                                           tbl["text"].to_pylist(),
                                           tbl["k"].to_pylist())):
        terms = set(tokenize_text(text))
        neg = set(tokenize_text(tbl["not_text"][i].as_py() or "")
                  if "not_text" in cols else ())
        mm = tbl["min_match"][i].as_py() or 0 if "min_match" in cols else 0
        cs = tbl["cursor_score"][i].as_py() if "cursor_score" in cols else None
        cd = tbl["cursor_doc"][i].as_py() if "cursor_doc" in cols else None
        if lmd_store is None:
            ranking = oracle.score_query(text, len(ids))
        else:
            acc: dict[int, float] = {}
            for p in lmd_store._plan(lmd_store._analyze(text), MU):
                for d, tf in oracle.postings.get(p.term, {}).items():
                    acc[d] = acc.get(d, 0.0) + max(0.0, np.log(
                        1.0 + tf * p.idf) + np.log(MU / (oracle.doc_len[d] + MU)))
            ranking = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
        kept = []
        for d, s in ranking:
            if allowed is not None and d not in allowed:
                continue
            if require_all and not terms <= toks[d]:
                continue
            if neg & toks[d] or (mm > 1 and len(terms & toks[d]) < mm):
                continue
            if cs is not None and not (round(s, 6) < cs
                                       or (round(s, 6) == cs and d > cd)):
                continue
            kept.append((d, float(s)))
        if cs is not None:  # a cursor pages in its own order
            kept.sort(key=lambda ds: (-round(ds[1], 6), ds[0]))
        out.append((qid, k, kept))
    return out


def _oracle(corpus: pa.Table, tbl: pa.Table, where=None,
            require_all=False, lmd_store=None, shard=None) -> pa.Table:
    """``_rankings`` cut to each row's k, as a top-k table; with ``shard``
    the top-k among that shard's docs (``doc_id % N_SHARDS``)."""
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, k, kept in _rankings(corpus, tbl, where, require_all, lmd_store):
        if shard is not None:
            kept = [(d, s) for d, s in kept if d % N_SHARDS == shard]
        for r, (d, s) in enumerate(kept[:k], 1):
            rows["query_id"].append(qid)
            rows["rank"].append(r)
            rows["doc_id"].append(d)
            rows["score"].append(s)
    return pa.table({"query_id": pa.array(rows["query_id"], pa.int64()),
                     "rank": pa.array(rows["rank"], pa.int64()),
                     "doc_id": pa.array(rows["doc_id"], pa.int64()),
                     "score": pa.array(rows["score"], pa.float64())})


def _assert_same(got: pa.Table, want: pa.Table) -> None:
    for c in ("query_id", "rank", "doc_id"):
        assert got[c].to_pylist() == want[c].to_pylist(), c
    assert np.array_equal(
        np.asarray(got["score"].to_pylist(), np.float64).view(np.int64),
        np.asarray(want["score"].to_pylist(), np.float64).view(np.int64))


@pytest.mark.parametrize("knobs", [
    {},
    {"_COMPACT_MIN": 1 << 40},  # every chunk over the shard's docs
    {"_COMPACT_MIN": 0, "_SPARSE": 0},  # over the docs it touches
    {"_ACC_CELLS": 1, "_SORT_MAX": 0},  # a chunk per query, threshold on
], ids=["default", "shard_docs", "touched_docs", "tiny_chunks"])
def test_batch_pass_matches_oracle(idx, corpus, monkeypatch, knobs):
    """The term-major batch pass (``LocalSearcher``'s plan, one score,
    merge) equals the oracle bit for bit on plain, ``where``,
    ``require_all``, NOT, min_match and cursor rows, a row whose k exceeds
    its matches, LM-Dirichlet, grouped and boosted partials and a zero-hit
    batch, whichever doc space the accumulator takes and however many
    chunks a batch spans."""
    for name, value in knobs.items():
        monkeypatch.setattr(query, name, value)
    extra = pa.table({"query_id": pa.array([900], pa.int64()),
                      "text": pa.array(["window customer"], pa.string()),
                      "k": pa.array([100_000], pa.int32()),
                      "not_text": pa.array([None], pa.string()),
                      "min_match": pa.array([None], pa.int32())})
    base = pa.concat_tables([_batch(), extra])
    tbl = _with_cursor(base, _local(idx, base))
    for t, w, ra in ((tbl, None, False), (tbl, WHERE, False),
                     (base, None, True), (base, WHERE, True)):
        got = _local(idx, t, w, ra)
        _assert_same(got, _oracle(corpus, t, w, ra))
    n_hits = got.filter(pa.compute.equal(got["query_id"], 900)).num_rows
    assert 0 < n_hits < 100_000
    # what leaves a worker: each shard's own top-k
    for shard in range(N_SHARDS):
        one = LocalSearcher(idx, shards=[shard])
        plan = _plan_batch(one.store, tbl)
        part, _done = one.worker.score(plan)
        _assert_same(_merge_topk_parts(plan.queries, [part]),
                     _oracle(corpus, tbl, shard=shard))

    ls = LocalSearcher(idx)
    plan = _plan_batch(ls.store, base, mu=MU)
    part, _done = ls.worker.score(plan)
    _assert_same(_merge_topk_parts(plan.queries, [part]),
                 _oracle(corpus, base, lmd_store=ls.store))

    lang = dict(zip(corpus["doc_id"].to_pylist(), corpus["lang"].to_pylist()))
    plan = _plan_batch(ls.store, base, cursors=False)
    ranked = _rankings(corpus, base)
    grouped = ls.worker.grouped_partials(plan, "lang")
    want = set()
    for qid, k, kept in ranked:
        per_group: dict = {}
        for d, s in kept:
            per_group.setdefault(lang[d], []).append((d, s))
        want |= {(qid, g, d, s) for g, rows in per_group.items()
                 for d, s in rows[:k]}
    assert set(zip(grouped["query_id"], grouped["lang"], grouped["doc_id"],
                   grouped["score"])) == want
    weights = {"en": 3.0}
    boosted = ls.worker.boosted_partials(plan, "lang", weights, 0.5)
    want = []
    for qid, k, kept in sorted(ranked):
        rows = sorted(((s * weights.get(lang[d], 0.5), d, s) for d, s in kept),
                      key=lambda r: (-r[0], r[1]))
        want += [(qid, d, s, b) for b, d, s in rows[:k]]
    assert list(zip(boosted["query_id"], boosted["doc_id"], boosted["score"],
                    boosted["boosted"])) == want

    # every match of a row holds one of its NOT terms: the pass runs and
    # selects nothing
    zero = pa.table({"query_id": pa.array([1, 2, 3], pa.int64()),
                     "text": pa.array(["the data", "filter", "qqnone"]),
                     "k": pa.array([5, 5, 5], pa.int32()),
                     "not_text": pa.array(["the data", "filter", None])})
    plan = _plan_batch(ls.store, zero)
    assert sorted(plan.queries) == [1, 2]
    (q, d, s), done = ls.worker.score(plan)
    assert q.size == d.size == s.size == 0 and sorted(done) == [1, 2]
    assert _oracle(corpus, zero).num_rows == 0


def test_add_during_startup_never_hands_over_to_mixed_state(tmp_path,
                                                            ray_session):
    """An add that commits between get_pool's pin and the pool's first
    answer: the pool serves the state it pinned, and the next get_pool
    refreshes it in place and serves the add."""
    full = generate_corpus(260, seed=41)
    src = tmp_path / "corp"
    src.mkdir()
    pq.write_table(full.slice(0, 200), str(src / "base.parquet"))
    pq.write_table(full.slice(200, 60), str(src / "d1.parquet"))
    index_dir = str(tmp_path / "idx")
    cfg = BuildConfig(n_shards=2, n_buckets=4, batch_size=128)
    build_index(str(src / "base.parquet"), index_dir, cfg, resume=False)
    ids = doc_id_from_key(full["repo"].to_pylist(), full["path"].to_pylist(),
                          full["commit"].to_pylist()).tolist()
    texts = full["content"].to_pylist()
    q = pa.table({"query_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["def return", "self import"]),
                  "k": pa.array([10, 10], pa.int32())})

    def expect(n):
        oracle = OracleIndex(ids[:n], texts[:n])
        return [d for t in ("def return", "self import")
                for d, _s in oracle.score_query(t, 10)]

    shutdown_pools()
    try:
        pool = get_pool(index_dir)
        add_documents(str(src / "d1.parquet"), index_dir, cfg)
        assert pool.topk(q)["doc_id"].to_pylist() == expect(200)
        pool2 = get_pool(index_dir)
        assert pool2 is pool
        assert pool2.topk(q)["doc_id"].to_pylist() == expect(260)
    finally:
        shutdown_pools()


def test_failed_refresh_shuts_the_pool_down(tmp_path, ray_session, sf_dir):
    """A get_pool whose refresh raises (an unreadable newest marker)
    leaves no cached pool behind."""
    import json

    index_dir = str(tmp_path / "idx")
    build_index(os.path.join(sf_dir, "documents.parquet"), index_dir,
                BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                            id_col="doc_id", meta_cols=()), resume=False)
    get_pool(index_dir)
    with open(os.path.join(index_dir, "_global", "gens", "g0001.json"),
              "w") as f:
        f.write("{not json")
    with pytest.raises(json.JSONDecodeError):
        get_pool(index_dir)
    assert index_dir not in query._POOLS
    shutdown_pools()


def test_query_worker_imports_neither_ray_data_nor_pandas(idx, tmp_path):
    """Building a ShardWorker and scoring a BM25 plan (a cold pool's open
    and first batch) must not import Ray Data or pandas: each costs a
    query-only process hundreds of milliseconds."""
    ls = LocalSearcher(idx)
    plan = _plan_batch(ls.store, _batch())
    want, _ = ls.worker.score(plan)
    plan_path = str(tmp_path / "plan.pkl")
    with open(plan_path, "wb") as f:
        pickle.dump(plan, f)
    script = (
        "import pickle, sys\n"
        "from archivesspace_virgo_ray.index.query import ShardWorker\n"
        f"w = ShardWorker({idx!r})\n"
        f"(q, d, s), done = w.score(pickle.load(open({plan_path!r}, 'rb')))\n"
        "print(len(d), sorted(m for m in ('pandas', 'ray.data')"
        " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=REPO)
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=REPO,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(len(want[1])), "[]"]


def test_query_planning_reads_buckets_without_pyarrow_dataset(idx, tmp_path):
    """Planning a BM25 batch and reading the vocabulary (a cold pool's
    term-stats buckets) load neither Ray Data nor ``pyarrow.dataset``,
    whose import and discovery made the first bucket reads cost ~10x a
    ``ParquetFile`` read. The plan equals the one this process makes."""
    ls = LocalSearcher(idx)
    want = _plan_batch(ls.store, _batch())
    batch_path = str(tmp_path / "batch.pkl")
    with open(batch_path, "wb") as f:
        pickle.dump(_batch(), f)
    script = (
        "import pickle, sys\n"
        "from archivesspace_virgo_ray.index.query import TermStatsStore, _plan_batch\n"
        f"store = TermStatsStore({idx!r})\n"
        f"plan = _plan_batch(store, pickle.load(open({batch_path!r}, 'rb')))\n"
        "n = len(store.vocabulary().terms)\n"
        "sys.stdout.buffer.write(pickle.dumps((plan, n, sorted(m for m in "
        "('pyarrow.dataset', 'ray.data') if m in sys.modules))))\n")
    env = dict(os.environ, PYTHONPATH=REPO)
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=REPO,
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    plan, n_terms, imported = pickle.loads(out.stdout)
    assert imported == [] and n_terms == len(ls.store.vocabulary().terms)
    assert plan == want


def test_query_only_process_starts_no_ray(tmp_path, ray_session, sf_dir):
    """A process that only queries indexes built elsewhere never starts
    Ray: ranked (BM25, LM-Dirichlet, timeAllowed), boolean, phrase,
    span-not, both facet forms, filter, grouped, boosted and explain, the
    term-dictionary queries (fuzzy, prefix, regexp, spellcheck), flat and
    boolean query strings, more-like-this, and a federated search over two
    members that equals the combined index."""
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    cfg = BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                      id_col="doc_id", meta_cols=("lang",),
                      store_positions=True)
    paths = {}
    for name, part in (("whole", docs), ("a", docs.slice(0, 250)),
                       ("b", docs.slice(250))):
        src = str(tmp_path / f"{name}.parquet")
        pq.write_table(part, src)
        paths[name] = str(tmp_path / name)
        build_index(src, paths[name], cfg, resume=False)
    doc = docs["doc_id"][0].as_py()
    phrase = " ".join(tokenize_text(docs["text"][0].as_py())[:2])
    script = f"""
import pyarrow as pa, pyarrow.dataset as pads
from archivesspace_virgo_ray.index import query as Q
from archivesspace_virgo_ray.index.federated import FederatedSearcher
from archivesspace_virgo_ray.index.fuzzy import fuzzy_topk
from archivesspace_virgo_ray.index.mlt import more_like_this
from archivesspace_virgo_ray.index.prefix import prefix_topk, regex_topk
from archivesspace_virgo_ray.index.qparser import querystring_topk
from archivesspace_virgo_ray.index.spellcheck import spellcheck
idx = {paths["whole"]!r}
tbl = pa.table({{"query_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["the data model", "sort merge"]),
                "k": pa.array([5, 5], pa.int32())}})

def one(col, value):
    return pa.table({{"query_id": pa.array([0], pa.int64()),
                     col: pa.array([value]), "k": pa.array([5], pa.int32())}})

pool = Q.get_pool(idx)
sizes = [
    Q.bm25_topk(idx, tbl).num_rows, Q.lmd_topk(idx, tbl).num_rows,
    pool.topk_time_allowed(tbl, 60.0)[0].num_rows,
    len(Q.matching_doc_ids(idx, "the data")),
    len(pool.phrase_ids({{0: ({phrase!r}, 0)}})[0]),
    len(pool.span_not_ids({{0: ({phrase!r}, "zzzz", 2)}})[0]),
    len(Q.facet_counts(idx, "lang")),
    len(Q.facet_counts(idx, "lang", text="data")),
    len(Q.filter_doc_ids(idx, pads.field("lang") == "en")),
    len(pool.grouped_topk(tbl, "lang")),
    len(pool.boosted_topk(tbl, "lang", {{"en": 2.0}})),
    len(Q.explain(idx, {phrase!r}, {doc})["terms"]),
    fuzzy_topk(idx, one("word", "srot")).num_rows,
    prefix_topk(idx, one("prefix", "st")).num_rows,
    regex_topk(idx, one("pattern", "s.*t")).num_rows,
    len(spellcheck(idx, ["srot"])),
    querystring_topk(idx, one("text", "sort dat*")).num_rows,
    querystring_topk(idx, one("text", "sort AND (merge OR data)")).num_rows,
    more_like_this(idx, {paths["whole"] + ".parquet"!r},
                   one("doc_id", {doc})).num_rows,
]
fed = FederatedSearcher([{paths["a"]!r}, {paths["b"]!r}]).topk(tbl)
import ray
print(all(sizes), fed.equals(Q.bm25_topk(idx, tbl)), ray.is_initialized())
"""
    env = dict(os.environ, PYTHONPATH=REPO)
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=REPO,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-3:] == ["True", "True", "False"]


def test_column_numpy_and_numpy_table_round_trip():
    """The buffer-level Arrow <-> numpy helpers a query worker uses instead
    of ``to_numpy``/``pa.array``: sliced and multi-chunk columns, floats,
    and the null/bool fallback."""
    from archivesspace_virgo_ray.index.segments import column_numpy, numpy_table

    col = pa.chunked_array([pa.array([1, 2, 3], pa.int32()).slice(1),
                            pa.array([7], pa.int32())])
    got = column_numpy(col)
    assert got.dtype == np.int32 and got.tolist() == [2, 3, 7]
    assert column_numpy(pa.array([0.5, 1.5, 2.5]).slice(1)).tolist() == [1.5, 2.5]
    assert column_numpy(pa.chunked_array([], pa.int64())).dtype == np.int64
    assert column_numpy(pa.array([True, False])).tolist() == [True, False]
    assert np.isnan(column_numpy(pa.array([1, None]))[1])
    t = numpy_table({"a": np.arange(3), "b": np.array([0.5, 1.5, 2.5])[::-1]})
    assert t.schema == pa.schema([("a", pa.int64()), ("b", pa.float64())])
    assert t["b"].to_pylist() == [2.5, 1.5, 0.5]
