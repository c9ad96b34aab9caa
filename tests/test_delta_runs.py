"""Every live generation of a bucket is read by the batch pass
(``ShardScorer.read``: one decode per live segment, tombstoned postings
dropped through each segment's live bitmap).

Pinned here, over 1 to 5 live generations (replace adds plus deletes):
the in-process path (``LocalSearcher``'s plan, score, merge), the pool and
a reference built on ``OracleIndex``'s postings of the live corpus agree
bit for bit, for BM25 and LM-Dirichlet, with ``where``, ``require_all``,
``min_match``, ``not_text`` and cursor pages. While deltas are live the
index plans with df and avgdl that still count replaced and deleted
versions (exact only after a full merge), so the reference scores the
live postings with the index's own plans; where the stats are exact (the
base, a pure add, after ``maintain``) the plans must equal
``OracleIndex.score_query``'s ranking too. At three generations the pass
is also checked with one query per accumulator chunk, and the grouped and
boosted partials against the reference. A warm worker never serves a
deleted doc after its refresh, and a doc replaced twice is live in its
newest delta only.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.functions.tokenize import tokenize_text
from archivesspace_virgo_ray.index import query
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import (
    LocalSearcher,
    TermStatsStore,
    _merge_topk_parts,
    _plan_batch,
    bm25_topk,
    lmd_topk,
    shutdown_pools,
)
from archivesspace_virgo_ray.index.update import (
    add_documents,
    delete_documents,
    maintain,
)
from archivesspace_virgo_ray.oracle import B, K1, OracleIndex

MU = 2000.0
WHERE = pads.field("lang") == "en"
N_BASE = 300


def _cfg() -> BuildConfig:
    return BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                       id_col="doc_id", meta_cols=("lang",))


@pytest.fixture(scope="module")
def rows(sf_dir):
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "lang"])
    return (t["doc_id"].to_pylist(), t["text"].to_pylist(),
            t["lang"].to_pylist())


def _table(ids, texts, langs) -> pa.Table:
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string()),
                     "lang": pa.array(langs, pa.string())})


def _deltas(rows):
    """Four steps of (table to add with replace, doc ids to delete after).
    Step 1 adds new docs only; steps 2-4 also replace base docs (one of
    them twice) and delete base docs and, in step 4, a doc step 1 added."""
    ids, texts, langs = rows
    out = []
    for g in range(1, 5):
        new = list(range(N_BASE + 25 * (g - 1), N_BASE + 25 * g))
        a_ids = [ids[i] for i in new]
        a_txt = [texts[i] for i in new]
        a_lang = [langs[i] for i in new]
        deleted = []
        if g > 1:
            # base docs 10g..10g+5 take the text and lang of rows 400+
            for j, i in enumerate(range(10 * g, 10 * g + 6)):
                src = 400 + 10 * g + j
                a_ids.append(ids[i])
                a_txt.append(texts[src])
                a_lang.append(langs[src])
            # base doc 1 is replaced at steps 2 and 3
            if g in (2, 3):
                a_ids.append(ids[1])
                a_txt.append(f"{texts[480 + g]} qqversion{g}")
                a_lang.append("en")
            deleted = [ids[i] for i in range(100 + 5 * g, 100 + 5 * g + 4)]
        if g == 4:
            deleted.append(ids[N_BASE])  # a delta doc of step 1
        out.append((_table(a_ids, a_txt, a_lang), deleted))
    return out


def _queries(live_texts: list[str], step: int) -> pa.Table:
    """Seeded query rows drawn from the live corpus' words, with NOT,
    min_match and a zero-hit row."""
    rng = np.random.default_rng(100 + step)
    words = sorted({w for t in live_texts for w in tokenize_text(t)})
    texts, nots, mms = [], [], []
    for i in range(14):
        n = 1 + i % 4
        texts.append(" ".join(rng.choice(words, n, replace=False)))
        nots.append(str(rng.choice(words)) if i % 5 == 1 else None)
        mms.append(2 if i % 4 == 3 else None)
    texts += ["the data", "qqversion2", "qqversion3", "zzzz nothing"]
    nots += [None] * 4
    mms += [None] * 4
    return pa.table({
        "query_id": pa.array(np.arange(len(texts)) * 3 + 1, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "k": pa.array([[3, 10, 50][i % 3] for i in range(len(texts))],
                      pa.int32()),
        "not_text": pa.array(nots, pa.string()),
        "min_match": pa.array(mms, pa.int32()),
    })


def _contrib(idf: float, tf: int, dl: int, avgdl: float, mu):
    if mu is None:  # the oracle's BM25 expression
        return idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))
    return max(0.0, np.log(1.0 + tf * idf) + np.log(mu / (dl + mu)))


def _ranked(idx: str, live: dict, tbl: pa.Table, mu=None, where=False,
            require_all=False) -> list:
    """Per row (query_id, k, [(doc_id, score)]): its ranking over the live
    corpus' postings (``OracleIndex``) with the index's own plans (term
    order, idf, avgdl), restricted as the engine restricts it (filter,
    AND, NOT, mm, cursor)."""
    store = TermStatsStore(idx)
    ids = sorted(live)
    oracle = OracleIndex(ids, [live[d][0] for d in ids])
    toks = {d: set(tokenize_text(live[d][0])) for d in ids}
    allowed = {d for d in ids if live[d][1] == "en"} if where else set(ids)
    def col(name: str) -> list:
        if name in tbl.column_names:
            return tbl[name].to_pylist()
        return [None] * tbl.num_rows

    out = []
    for qid, text, k, nt, mm, cs, cd in zip(
            col("query_id"), col("text"), col("k"), col("not_text"),
            col("min_match"), col("cursor_score"), col("cursor_doc")):
        terms = set(tokenize_text(text))
        plans = store._plan(store._analyze(text), mu)
        neg = set(tokenize_text(nt or ""))
        mm = mm or 0
        acc: dict[int, float] = {}
        for p in plans:
            for d, tf in oracle.postings.get(p.term, {}).items():
                acc[d] = acc.get(d, 0.0) + _contrib(
                    p.idf, tf, oracle.doc_len[d], store._avgdl, mu)
        kept = []
        for d, s in sorted(acc.items(), key=lambda kv: (-kv[1], kv[0])):
            if d not in allowed or neg & toks[d]:
                continue
            if require_all and not terms <= toks[d]:
                continue
            if mm > 1 and len(terms & toks[d]) < mm:
                continue
            if cs is not None and not (round(s, 6) < cs
                                       or (round(s, 6) == cs and d > cd)):
                continue
            kept.append((d, float(s)))
        if cs is not None:  # a cursor pages in its own order
            kept.sort(key=lambda ds: (-round(ds[1], 6), ds[0]))
        out.append((qid, k, kept))
    return out


def _reference(idx: str, live: dict, tbl: pa.Table, mu=None, where=False,
               require_all=False) -> pa.Table:
    """``_ranked`` cut to each row's k, as a top-k table."""
    out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, k, kept in _ranked(idx, live, tbl, mu, where, require_all):
        for r, (d, s) in enumerate(kept[:k], 1):
            out["query_id"].append(qid)
            out["rank"].append(r)
            out["doc_id"].append(d)
            out["score"].append(s)
    return pa.table({"query_id": pa.array(out["query_id"], pa.int64()),
                     "rank": pa.array(out["rank"], pa.int64()),
                     "doc_id": pa.array(out["doc_id"], pa.int64()),
                     "score": pa.array(out["score"], pa.float64())})


def _local(idx: str, tbl: pa.Table, mu=None, where=None, require_all=False):
    """The ``LocalSearcher`` path: plan, one in-process score, merge."""
    ls = LocalSearcher(idx)
    plan = _plan_batch(ls.store, tbl, mu)
    part, _done = ls.worker.score(plan, where, require_all)
    return _merge_topk_parts(plan.queries, [part])


def _assert_same(got: pa.Table, want: pa.Table, what: str) -> None:
    for c in ("query_id", "rank", "doc_id"):
        assert got[c].to_pylist() == want[c].to_pylist(), (what, c)
    assert np.array_equal(
        np.asarray(got["score"].to_pylist(), np.float64).view(np.int64),
        np.asarray(want["score"].to_pylist(), np.float64).view(np.int64)), what


def _with_cursor(tbl: pa.Table, page: pa.Table) -> pa.Table:
    """``tbl`` resuming every row after the last answer of its ``page``
    (rows without answers keep no cursor)."""
    last = {}
    for q, d, s in zip(page["query_id"].to_pylist(), page["doc_id"].to_pylist(),
                       page["score"].to_pylist()):
        last[q] = (round(s, 6), d)
    qids = tbl["query_id"].to_pylist()
    return (tbl.append_column("cursor_score", pa.array(
                [last.get(q, (None, None))[0] for q in qids], pa.float64()))
               .append_column("cursor_doc", pa.array(
                [last.get(q, (None, None))[1] for q in qids], pa.int64())))


def _check(idx: str, live: dict, step: int, exact_stats: bool) -> None:
    tbl = _queries([t for t, _ in live.values()], step)
    for mu in (None, MU):
        want = _reference(idx, live, tbl, mu)
        _assert_same(_local(idx, tbl, mu), want, f"local mu={mu}")
        pool = bm25_topk(idx, tbl) if mu is None else lmd_topk(idx, tbl, mu)
        _assert_same(pool, want, f"pool mu={mu}")
        paged = _with_cursor(tbl, want)
        want = _reference(idx, live, paged, mu)
        _assert_same(_local(idx, paged, mu), want, f"local page 2 mu={mu}")
        pool = (bm25_topk(idx, paged) if mu is None
                else lmd_topk(idx, paged, mu))
        _assert_same(pool, want, f"pool page 2 mu={mu}")
    for kw in ({"where": True}, {"require_all": True}):
        engine_kw = {"where": WHERE} if "where" in kw else kw
        want = _reference(idx, live, tbl, **kw)
        _assert_same(_local(idx, tbl, **engine_kw), want, f"local {kw}")
        _assert_same(bm25_topk(idx, tbl, **engine_kw), want, f"pool {kw}")
    if exact_stats:
        # the index's plans are the oracle's: its own ranking, unrestricted
        ids = sorted(live)
        oracle = OracleIndex(ids, [live[d][0] for d in ids])
        plain = tbl.select(["query_id", "text", "k"])
        want = _local(idx, plain)
        for qid, text, k in zip(*(plain[c].to_pylist() for c in plain.column_names)):
            got = [(d, s) for q, d, s in zip(want["query_id"].to_pylist(),
                                             want["doc_id"].to_pylist(),
                                             want["score"].to_pylist()) if q == qid]
            assert got == oracle.score_query(text, k), text


def _check_batch_pass(idx: str, live: dict, step: int) -> None:
    """The batch pass over the shard's docs and with one query per
    accumulator chunk (each over the docs it touches) and the top-k
    threshold on every chunk, and the grouped and boosted partials (every
    match scored), against the reference."""
    tbl = _queries([t for t, _ in live.values()], step)
    for knobs in ({"_COMPACT_MIN": 1 << 40},
                  {"_ACC_CELLS": 1, "_SORT_MAX": 0}):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in knobs.items():
                mp.setattr(query, name, value)
            for mu in (None, MU):
                want = _reference(idx, live, tbl, mu)
                _assert_same(_local(idx, tbl, mu), want, f"{knobs} mu={mu}")
                paged = _with_cursor(tbl, want)
                _assert_same(_local(idx, paged, mu),
                             _reference(idx, live, paged, mu),
                             f"{knobs} page 2 mu={mu}")
            for kw in ({"where": True}, {"require_all": True}):
                engine_kw = {"where": WHERE} if "where" in kw else kw
                _assert_same(_local(idx, tbl, **engine_kw),
                             _reference(idx, live, tbl, **kw), f"{knobs} {kw}")
    ls = LocalSearcher(idx)
    plan = _plan_batch(ls.store, tbl, cursors=False)
    ranked = _ranked(idx, live, tbl)
    grouped = ls.worker.grouped_partials(plan, "lang")
    want = set()
    for qid, k, kept in ranked:
        per_group: dict = {}
        for d, s in kept:
            per_group.setdefault(live[d][1], []).append((d, s))
        want |= {(qid, g, d, s) for g, rows in per_group.items()
                 for d, s in rows[:k]}
    assert set(zip(grouped["query_id"], grouped["lang"], grouped["doc_id"],
                   grouped["score"])) == want
    boosted = ls.worker.boosted_partials(plan, "lang", {"en": 3.0}, 0.5)
    want = []
    for qid, k, kept in sorted(ranked):
        rows = sorted(((s * (3.0 if live[d][1] == "en" else 0.5), d, s)
                       for d, s in kept), key=lambda r: (-r[0], r[1]))
        want += [(qid, d, s, b) for b, d, s in rows[:k]]
    assert list(zip(boosted["query_id"], boosted["doc_id"], boosted["score"],
                    boosted["boosted"])) == want


def _live_generations(idx: str) -> int:
    ls = LocalSearcher(idx)
    return max(len(v) for sc in ls.worker.scorers.values()
               for v in sc.readers.values())


def test_delta_generations_agree_with_oracle(tmp_path, ray_session, rows):
    ids, texts, langs = rows
    src = str(tmp_path / "base.parquet")
    pq.write_table(_table(ids[:N_BASE], texts[:N_BASE], langs[:N_BASE]), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, _cfg(), resume=False)
    live = {d: (t, lang) for d, t, lang in
            zip(ids[:N_BASE], texts[:N_BASE], langs[:N_BASE])}
    shutdown_pools()
    try:
        _check(idx, live, 0, exact_stats=True)
        for step, (tbl, deleted) in enumerate(_deltas(rows), 1):
            path = str(tmp_path / f"d{step}.parquet")
            pq.write_table(tbl, path)
            add_documents(path, idx, _cfg(), on_conflict="replace")
            live.update(zip(tbl["doc_id"].to_pylist(),
                            zip(tbl["text"].to_pylist(), tbl["lang"].to_pylist())))
            if deleted:
                delete_documents(idx, deleted)
                for d in deleted:
                    del live[d]
            assert _live_generations(idx) == step + 1
            _check(idx, live, step, exact_stats=step == 1)
            if step == 2:  # three generations, replaces and deletes live
                _check_batch_pass(idx, live, step)
        maintain(idx, concurrency=2, dead_ratio=0.0)
        assert _live_generations(idx) == 1
        _check(idx, live, 5, exact_stats=True)
    finally:
        shutdown_pools()


def _one_query(text: str, k: int = 10) -> pa.Table:
    return pa.table({"query_id": pa.array([0], pa.int64()),
                     "text": pa.array([text], pa.string()),
                     "k": pa.array([k], pa.int32())})


def test_delete_drops_a_memoised_run(tmp_path, ray_session, rows):
    """A warm worker that read a delta doc before its delete must not
    serve it after: the refresh builds new scorers (and their live
    bitmaps), so the deleted delta doc is gone."""
    ids, texts, langs = rows
    src = str(tmp_path / "base.parquet")
    pq.write_table(_table(ids[:50], texts[:50], langs[:50]), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, _cfg(), resume=False)
    add = str(tmp_path / "add.parquet")
    pq.write_table(_table([ids[60], ids[61]],
                          [texts[60] + " qqmemo", texts[61] + " qqmemo"],
                          ["en", "en"]), add)
    add_documents(add, idx, _cfg())
    q = _one_query("qqmemo")
    ls = LocalSearcher(idx)
    shutdown_pools()
    try:
        assert sorted(_local(idx, q)["doc_id"].to_pylist()) == sorted(ids[60:62])
        part, _ = ls.worker.score(_plan_batch(ls.store, q))
        assert sorted(part[1].tolist()) == sorted(ids[60:62])
        assert sorted(bm25_topk(idx, q)["doc_id"].to_pylist()) == sorted(ids[60:62])
        delete_documents(idx, [ids[60]])
        ls.worker.refresh()
        part, _ = ls.worker.score(_plan_batch(ls.store, q))
        assert part[1].tolist() == [ids[61]]
        assert bm25_topk(idx, q)["doc_id"].to_pylist() == [ids[61]]
    finally:
        shutdown_pools()


def test_doc_replaced_twice_is_live_in_its_newest_delta_only(tmp_path,
                                                             ray_session, rows):
    ids, texts, langs = rows
    src = str(tmp_path / "base.parquet")
    pq.write_table(_table(ids[:50], texts[:50], langs[:50]), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, _cfg(), resume=False)
    doc = ids[7]
    for g, word in ((1, "qqfirst"), (2, "qqsecond")):
        path = str(tmp_path / f"r{g}.parquet")
        pq.write_table(_table([doc], [f"qqshared {word}"], ["en"]), path)
        add_documents(path, idx, _cfg(), on_conflict="replace")
    assert _live_generations(idx) == 3
    ls = LocalSearcher(idx)
    assert doc not in [d for d, _ in ls.search(texts[7], 50)]
    assert ls.search("qqfirst", 10) == []
    hits = ls.search("qqshared qqsecond", 10)
    assert [d for d, _ in hits] == [doc]
    # one contribution per term, from the newest version only
    want = _reference(idx, {doc: ("qqshared qqsecond", "en")},
                      _one_query("qqshared qqsecond"))
    assert hits[0][1] == want["score"][0].as_py()
    assert [d for d, _ in ls.search("qqshared qqfirst", 10)] == [doc]
    assert ls.search("qqshared qqfirst", 10, require_all=True) == []
