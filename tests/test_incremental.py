"""Incremental index: delta generations, merger actors, tombstones.

Conformance bar: after add_documents the engine must be rank-identical to an
oracle over the UNION corpus; after merge_segments the segment files must be
byte-identical to a from-scratch rebuild of the union corpus.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import LocalSearcher
from archivesspace_virgo_ray.index.reshard import segments_equal
from archivesspace_virgo_ray.index.update import (
    add_documents,
    delete_documents,
    list_segment_generations,
    merge_segments,
)
from archivesspace_virgo_ray.oracle import OracleIndex

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)
QUERIES = ["the", "def return", "parse_0 index_1", "license import"]


def _ids(t: pa.Table):
    return doc_id_from_key(
        t["repo"].to_pylist(), t["path"].to_pylist(), t["commit"].to_pylist()
    )


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("inc")
    full = generate_corpus(400, seed=42)
    base, delta = full.slice(0, 300), full.slice(300, 100)
    pq.write_table(base, str(d / "base.parquet"))
    pq.write_table(delta, str(d / "delta.parquet"))
    return str(d), full, base, delta


def test_add_then_query_matches_union_oracle(corpora, tmp_path_factory, ray_session):
    d, full, base, delta = corpora
    idx = str(tmp_path_factory.mktemp("idx_inc") / "idx")
    build_index(os.path.join(d, "base.parquet"), idx, BuildConfig(**CFG), resume=False)
    add_documents(os.path.join(d, "delta.parquet"), idx, BuildConfig(**CFG))

    oracle = OracleIndex(_ids(full).tolist(), full["content"].to_pylist())
    searcher = LocalSearcher(idx)
    for q in QUERIES:
        expect = oracle.score_query(q, 10)
        got = searcher.search(q, 10)
        assert [x for x, _ in got] == [x for x, _ in expect], q
        assert [s for _, s in got] == [s for _, s in expect], q

    gens = list_segment_generations(idx)
    assert any(len(names) > 1 for names in gens.values())


def test_merge_is_byte_identical_to_rebuild(corpora, tmp_path_factory, ray_session):
    d, full, base, delta = corpora
    root = tmp_path_factory.mktemp("idx_merge")
    idx_inc = str(root / "inc")
    build_index(os.path.join(d, "base.parquet"), idx_inc, BuildConfig(**CFG), resume=False)
    add_documents(os.path.join(d, "delta.parquet"), idx_inc, BuildConfig(**CFG))
    report = merge_segments(idx_inc, concurrency=2)
    assert report["merged"].any()
    gens = list_segment_generations(idx_inc)
    assert all(len(names) == 1 for names in gens.values())

    idx_full = str(root / "full")
    full_dir = str(root / "full_corpus")
    os.makedirs(full_dir)
    pq.write_table(full, os.path.join(full_dir, "part-0.parquet"))
    build_index(full_dir, idx_full, BuildConfig(**CFG), resume=False)
    # pair by pair: the merge names each output by its generation
    assert segments_equal(idx_full, idx_inc), "merge differs from full rebuild"

    # queries still exact post-merge
    oracle = OracleIndex(_ids(full).tolist(), full["content"].to_pylist())
    searcher = LocalSearcher(idx_inc)
    for q in QUERIES:
        expect = oracle.score_query(q, 10)
        got = searcher.search(q, 10)
        assert [x for x, _ in got] == [x for x, _ in expect], q


def test_large_delta_add_matches_small_path(corpora, tmp_path_factory,
                                            ray_session, monkeypatch):
    """A delta above ``build._SMALL_SOURCE_ROWS`` streams through the staged
    Dataset exchange; its segments must be byte-identical to the driver
    path's, with the staging dir gone and identical answers."""
    import shutil

    import ray.data

    from archivesspace_virgo_ray.index import build, update

    d, full, base, delta = corpora
    root = tmp_path_factory.mktemp("idx_bigadd")
    small, big = str(root / "small"), str(root / "big")
    cfg = dict(CFG, store_positions=True)
    build_index(os.path.join(d, "base.parquet"), small, BuildConfig(**cfg),
                resume=False)
    shutil.copytree(small, big)

    seen = []
    real = update.write_segments

    def spy(triples, *a, **kw):
        seen.append(type(triples))
        return real(triples, *a, **kw)

    monkeypatch.setattr(update, "write_segments", spy)
    s_small = add_documents(os.path.join(d, "delta.parquet"), small,
                            BuildConfig(**CFG))
    monkeypatch.setattr(build, "_SMALL_SOURCE_ROWS", 0)
    s_big = add_documents(os.path.join(d, "delta.parquet"), big,
                          BuildConfig(**CFG))
    assert seen == [pa.Table, ray.data.Dataset]

    assert any(len(names) > 1 for names in list_segment_generations(big).values())
    assert segments_equal(small, big)
    assert not os.path.exists(os.path.join(big, "_staging"))
    for key in ("n_docs", "total_len", "n_postings"):
        assert s_small[key] == s_big[key], key
    a, b = LocalSearcher(small), LocalSearcher(big)
    for q in QUERIES:
        assert a.search(q, 10) == b.search(q, 10), q


def test_tombstones(corpora, tmp_path_factory, ray_session):
    d, full, base, delta = corpora
    idx = str(tmp_path_factory.mktemp("idx_del") / "idx")
    build_index(os.path.join(d, "base.parquet"), idx, BuildConfig(**CFG), resume=False)

    searcher = LocalSearcher(idx)
    before = searcher.search("the", 10)
    victim = before[0][0]
    delete_documents(idx, [victim])

    searcher2 = LocalSearcher(idx)
    after = searcher2.search("the", 10)
    assert victim not in [x for x, _ in after]
    # Lucene-delete semantics: surviving docs keep their exact scores
    before_rest = [(x, s) for x, s in before if x != victim]
    assert after[: len(before_rest)] == before_rest


def test_add_documents_retry_after_crash(corpora, tmp_path_factory, ray_session):
    """A half-committed delta generation (no gen marker) is invisible to
    queries and garbage-collected on the next add — no double indexing."""
    import json as _json

    d, full, base, delta = corpora
    idx = str(tmp_path_factory.mktemp("idx_retry") / "idx")
    build_index(os.path.join(d, "base.parquet"), idx, BuildConfig(**CFG), resume=False)
    add_documents(os.path.join(d, "delta.parquet"), idx, BuildConfig(**CFG))

    # simulate the crash: delete the gen marker (segments remain on disk)
    gen_dir = os.path.join(idx, "_global", "gens")
    markers = sorted(os.listdir(gen_dir))
    assert markers
    os.remove(os.path.join(gen_dir, markers[-1]))

    # uncommitted gen is invisible: queries revert to the base corpus
    base_oracle = OracleIndex(_ids(base).tolist(), base["content"].to_pylist())
    # stats still count the crashed gen until the next add heals them, so
    # compare doc membership (scores depend on avgdl): base-only doc ids
    got_docs = {x for x, _ in LocalSearcher(idx).search("the", 400)}
    assert got_docs <= set(_ids(base).tolist())

    # retry: cleanup + re-add must land exactly the union corpus
    stats = add_documents(os.path.join(d, "delta.parquet"), idx, BuildConfig(**CFG))
    assert stats["n_docs"] == 400
    oracle = OracleIndex(_ids(full).tolist(), full["content"].to_pylist())
    searcher = LocalSearcher(idx)
    for q in QUERIES:
        expect = oracle.score_query(q, 10)
        got = searcher.search(q, 10)
        assert [x for x, _ in got] == [x for x, _ in expect], q
        assert [s for _, s in got] == [s for _, s in expect], q


def _mini_corpus(rows):
    import pandas as pd

    return pa.Table.from_pandas(
        pd.DataFrame(rows, columns=["doc_id", "text", "lang"]), preserve_index=False
    )


MINI_CFG = dict(n_shards=2, n_buckets=2, text_col="text", id_col="doc_id",
                meta_cols=("lang",), batch_size=64)


def test_add_documents_rejects_duplicate_ids(tmp_path, ray_session):
    """Re-adding a live doc_id is the natural misuse of the incremental API
    (the reference re-posts changed docs) — default is a loud error."""
    import pyarrow.parquet as pqt

    base = _mini_corpus([(1, "alpha beta", "en"), (2, "beta gamma", "fr")])
    dup = _mini_corpus([(2, "beta gamma CHANGED", "fr"), (3, "delta", "en")])
    d = tmp_path
    pqt.write_table(base, str(d / "base.parquet"))
    pqt.write_table(dup, str(d / "dup.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)
    with pytest.raises(ValueError, match="already.*live"):
        add_documents(str(d / "dup.parquet"), idx, BuildConfig(**MINI_CFG))
    # the failed attempt must leave no half-visible generation behind
    s = LocalSearcher(idx)
    assert {x for x, _ in s.search("delta", 10)} == set()


def test_replace_semantics_and_merge_equals_rebuild(tmp_path, ray_session):
    """on_conflict='replace': the new version wins everywhere (ranking,
    boolean match, facets), n_docs stays exact, and a merge is byte-identical
    to a rebuild over the latest versions."""
    import pyarrow.parquet as pqt

    from archivesspace_virgo_ray.index.query import facet_counts, matching_doc_ids
    from archivesspace_virgo_ray.index.update import list_segment_generations

    base = _mini_corpus(
        [(1, "alpha beta common", "en"), (2, "beta gamma common", "fr"),
         (3, "gamma delta common", "en")]
    )
    repl = _mini_corpus([(2, "epsilon zeta common", "de"), (4, "eta theta common", "en")])
    latest = _mini_corpus(
        [(1, "alpha beta common", "en"), (3, "gamma delta common", "en"),
         (2, "epsilon zeta common", "de"), (4, "eta theta common", "en")]
    )
    d = tmp_path
    for name, t in [("base", base), ("repl", repl), ("latest", latest)]:
        pqt.write_table(t, str(d / f"{name}.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)
    stats = add_documents(str(d / "repl.parquet"), idx, BuildConfig(**MINI_CFG),
                          on_conflict="replace")
    assert stats["n_docs"] == 4  # 3 + 2 new - 1 replaced

    # old version masked, new visible — ranking, boolean and facet paths
    s = LocalSearcher(idx)
    assert {x for x, _ in s.search("beta", 10)} == {1}
    assert {x for x, _ in s.search("epsilon", 10)} == {2}
    assert matching_doc_ids(idx, "common", "and").tolist() == [1, 2, 3, 4]
    fc = facet_counts(idx, "lang", text="common", mode="and")
    assert dict(zip(fc["lang"], fc["n_docs"])) == {"de": 1, "en": 3}

    # merge folds generations and drops the replaced version's postings —
    # byte-identical to a from-scratch build over the latest versions
    merge_segments(idx, concurrency=2)
    idx_full = str(d / "idx_full")
    build_index(str(d / "latest.parquet"), idx_full, BuildConfig(**MINI_CFG),
                resume=False)
    assert segments_equal(idx_full, idx), "merge differs from rebuild over latest"
    # post-merge stats and scores match the rebuild exactly
    from archivesspace_virgo_ray.index.segments import read_stats

    sm, sf = read_stats(idx), read_stats(idx_full)
    assert (sm["n_docs"], sm["total_len"]) == (sf["n_docs"], sf["total_len"])
    got = LocalSearcher(idx).search("common", 10)
    want = LocalSearcher(idx_full).search("common", 10)
    assert got == want


def test_delete_then_readd_becomes_visible(tmp_path, ray_session):
    """delete + add of the same id: the new version is visible (the old
    ADVICE failure mode was a permanent tombstone mask)."""
    import pyarrow.parquet as pqt

    base = _mini_corpus([(1, "alpha beta", "en"), (2, "beta gamma", "fr")])
    readd = _mini_corpus([(2, "omega psi", "de")])
    d = tmp_path
    pqt.write_table(base, str(d / "base.parquet"))
    pqt.write_table(readd, str(d / "readd.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)
    delete_documents(idx, [2])
    assert {x for x, _ in LocalSearcher(idx).search("gamma", 10)} == set()
    add_documents(str(d / "readd.parquet"), idx, BuildConfig(**MINI_CFG))
    s = LocalSearcher(idx)
    assert {x for x, _ in s.search("omega", 10)} == {2}
    assert {x for x, _ in s.search("gamma", 10)} == set()  # old version stays dead


def test_delete_merge_readd_keeps_stats_exact(tmp_path, ray_session):
    """delete → merge (expunge) → re-add of the same id: n_docs/avgdl must
    match a from-scratch rebuild over the live corpus (regression: the
    shadowed re-add used to be double-subtracted after a merge-expunge)."""
    import pyarrow.parquet as pqt

    from archivesspace_virgo_ray.index.segments import read_stats

    base = _mini_corpus([(1, "alpha beta", "en"), (2, "beta gamma", "fr")])
    extra = _mini_corpus([(3, "delta epsilon", "en")])
    readd = _mini_corpus([(2, "omega psi", "de")])
    d = tmp_path
    for n, t in [("base", base), ("extra", extra), ("readd", readd)]:
        pqt.write_table(t, str(d / f"{n}.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)
    add_documents(str(d / "extra.parquet"), idx, BuildConfig(**MINI_CFG))
    delete_documents(idx, [2])
    merge_segments(idx, concurrency=2)  # expunges doc 2's postings
    stats = add_documents(str(d / "readd.parquet"), idx, BuildConfig(**MINI_CFG))
    assert stats["n_docs"] == 3  # {1, 3, 2-new} — not 2

    # live docs all searchable, old version stays dead
    s = LocalSearcher(idx)
    assert {x for x, _ in s.search("omega", 10)} == {2}
    assert {x for x, _ in s.search("gamma", 10)} == set()

    # post-merge the whole index equals a rebuild over the live corpus
    merge_segments(idx, concurrency=2)
    live = _mini_corpus([(1, "alpha beta", "en"), (3, "delta epsilon", "en"),
                         (2, "omega psi", "de")])
    pqt.write_table(live, str(d / "live.parquet"))
    idx2 = str(d / "idx2")
    build_index(str(d / "live.parquet"), idx2, BuildConfig(**MINI_CFG), resume=False)
    s1, s2 = read_stats(idx), read_stats(idx2)
    assert (s1["n_docs"], s1["total_len"]) == (s2["n_docs"], s2["total_len"])
    for q in ("alpha", "omega", "epsilon"):
        assert LocalSearcher(idx).search(q, 10) == LocalSearcher(idx2).search(q, 10)


def test_merge_expunges_single_generation_pairs(tmp_path, ray_session):
    """A delete in a (shard, bucket) with NO delta generations must still be
    expunged by merge_segments, leaving stats exact (regression: the merge
    skipped single-gen pairs entirely, decrementing n_docs while the dead
    tokens stayed in total_len)."""
    import pyarrow.parquet as pqt

    from archivesspace_virgo_ray.index.segments import read_stats

    base = _mini_corpus([(1, "alpha beta", "en"), (2, "beta gamma gamma", "fr"),
                         (3, "delta", "en")])
    d = tmp_path
    pqt.write_table(base, str(d / "base.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)
    delete_documents(idx, [2])
    report = merge_segments(idx, concurrency=2)
    assert report["merged"].any()  # single-gen pairs of doc 2's shard rewrote

    live = _mini_corpus([(1, "alpha beta", "en"), (3, "delta", "en")])
    pqt.write_table(live, str(d / "live.parquet"))
    idx2 = str(d / "idx2")
    build_index(str(d / "live.parquet"), idx2, BuildConfig(**MINI_CFG), resume=False)
    s1, s2 = read_stats(idx), read_stats(idx2)
    assert (s1["n_docs"], s1["total_len"]) == (s2["n_docs"], s2["total_len"])
    assert abs(s1["avgdl"] - s2["avgdl"]) < 1e-12
    assert LocalSearcher(idx).search("beta", 10) == LocalSearcher(idx2).search("beta", 10)


def test_merge_after_expunge_is_a_noop(tmp_path, ray_session):
    """A second merge after the expunge must find NO work (regression: the
    delete threshold exceeded every segment generation forever, so every
    merge rewrote all buckets of the dead doc's shard as byte-identical
    no-ops)."""
    import pyarrow.parquet as pqt

    base = _mini_corpus([(1, "alpha beta", "en"), (2, "beta gamma", "fr"),
                         (3, "delta", "en")])
    d = tmp_path
    pqt.write_table(base, str(d / "base.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)
    delete_documents(idx, [2])
    first = merge_segments(idx, concurrency=2)
    assert first["merged"].any()
    second = merge_segments(idx, concurrency=2)
    assert len(second) == 0 or not second["merged"].any()
    # a NEWER delete raises the bar again
    delete_documents(idx, [1])
    third = merge_segments(idx, concurrency=2)
    assert third["merged"].any()


def test_consecutive_same_shard_deletes_both_expunge(tmp_path, ray_session):
    """Two deletes with no generation in between share a threshold VALUE;
    the second (same shard) must still be expunged by the next merge
    (regression: the scalar expunged-threshold bookkeeping saw it as
    already applied — caught by the 30-seed lifecycle soak)."""
    import pyarrow.parquet as pqt

    from archivesspace_virgo_ray.index.segments import read_stats

    cfg = dict(MINI_CFG)
    base = _mini_corpus([(2, "alpha beta", "en"), (4, "beta gamma", "fr"),
                         (6, "gamma delta", "en"), (1, "delta eps", "de")])
    d = tmp_path
    pqt.write_table(base, str(d / "base.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**cfg), resume=False)
    # doc ids 2, 4, 6 share shard 0 (n_shards=2)
    delete_documents(idx, [2])
    merge_segments(idx, concurrency=2)
    delete_documents(idx, [4])   # same shard, SAME threshold value
    report = merge_segments(idx, concurrency=2)
    assert len(report) and report["merged"].any()

    live = _mini_corpus([(6, "gamma delta", "en"), (1, "delta eps", "de")])
    pqt.write_table(live, str(d / "live.parquet"))
    idx2 = str(d / "idx2")
    build_index(str(d / "live.parquet"), idx2, BuildConfig(**cfg), resume=False)
    s1, s2 = read_stats(idx), read_stats(idx2)
    assert (s1["n_docs"], s1["total_len"]) == (s2["n_docs"], s2["total_len"])
    assert LocalSearcher(idx).search("beta", 10) == LocalSearcher(idx2).search("beta", 10)


def test_termstats_version_outlives_one_commit(tmp_path, ray_session):
    """An add's marker names a NEW term-stats version; the reap rule keeps
    the version the second-newest marker names, so a store pinned before
    the add still plans from its complete version."""
    import pyarrow.parquet as pqt

    from archivesspace_virgo_ray.index.build import termstats_dir
    from archivesspace_virgo_ray.index.query import TermStatsStore

    base = _mini_corpus([(1, "alpha beta", "en"), (2, "beta gamma", "fr")])
    delta = _mini_corpus([(3, "beta delta", "en")])
    d = tmp_path
    pqt.write_table(base, str(d / "base.parquet"))
    pqt.write_table(delta, str(d / "delta.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)

    v1 = termstats_dir(idx)
    assert os.path.basename(v1).startswith("termstats-")
    store = TermStatsStore(idx)
    assert store._ts_dir == v1

    add_documents(str(d / "delta.parquet"), idx, BuildConfig(**MINI_CFG))
    v2 = termstats_dir(idx)
    assert v2 != v1
    assert os.path.isdir(v1)
    plans = store.plan_query("beta")
    assert plans and plans[0].term == "beta"
    # the pinned store plans its own commit: 2 docs, df(beta) = 2
    assert store.stats["n_docs"] == 2
    fresh = TermStatsStore(idx)
    assert fresh._ts_dir == v2 and fresh.stats["n_docs"] == 3
    assert fresh.plan_query("beta")[0].idf != plans[0].idf


def test_warm_store_refreshes_whole_snapshot_when_pinned_seal_gcd(
    tmp_path, ray_session
):
    """A warm TermStatsStore held across TWO commits finds its version
    reaped: planning a term of a bucket it has not loaded raises
    _StaleIndexRead — never a plan that reads the missing bucket as empty
    (a partial vocabulary) — and a fresh store plans the newest commit."""
    import pyarrow.parquet as pqt

    from archivesspace_virgo_ray.index.query import TermStatsStore, _StaleIndexRead

    base = _mini_corpus([(1, "alpha beta", "en"), (2, "beta gamma", "fr")])
    d = tmp_path
    pqt.write_table(base, str(d / "base.parquet"))
    for i, text in enumerate(("beta delta", "delta epsilon")):
        pqt.write_table(_mini_corpus([(3 + i, text, "en")]), str(d / f"d{i}.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)

    store = TermStatsStore(idx)
    assert store.plan_query("beta")  # warm one bucket from the base seal
    old_dir = store._ts_dir
    for i in range(2):
        add_documents(str(d / f"d{i}.parquet"), idx, BuildConfig(**MINI_CFG))
    assert not os.path.exists(old_dir)

    cold = [t for t in ("alpha", "beta", "gamma", "delta", "epsilon")
            if store._bucket_of([t])[0] not in store._buckets]
    assert cold, "every term's bucket is warm: pick more terms"
    for t in cold:
        with pytest.raises(_StaleIndexRead):
            store.plan_query(t)
    from archivesspace_virgo_ray.oracle import bm25_idf

    fresh = TermStatsStore(idx)
    assert fresh.stats["n_docs"] == 4
    assert fresh.plan_query("delta")[0].idf == bm25_idf(2, 4)


def test_delete_by_query(ray_session, tmp_path):
    """deleteByQuery tombstones the boolean match set; survivors keep their
    scores; a merge then expunges for real."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from archivesspace_virgo_ray.index.build import BuildConfig, build_index
    from archivesspace_virgo_ray.index.query import get_pool
    from archivesspace_virgo_ray.index.update import delete_by_query, merge_segments

    corpus = tmp_path / "c"
    corpus.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([
                "alpha beta target", "alpha beta", "target only here",
                "alpha beta target keep" ,
            ]),
        }),
        str(corpus / "d.parquet"),
    )
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                      id_col="doc_id", meta_cols=())
    build_index(str(corpus), idx, cfg, resume=False)

    # AND query: docs containing alpha AND target -> 1 and 4
    n = delete_by_query(idx, "alpha target", mode="and")
    assert n == 2
    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array(["alpha"]), "k": pa.array([10], pa.int32())})
    left = set(get_pool(idx).topk(q)["doc_id"].to_pylist())
    assert left == {2}
    # doc 3 has target but not alpha — still findable
    q3 = pa.table({"query_id": pa.array([0], pa.int64()),
                   "text": pa.array(["target"]), "k": pa.array([10], pa.int32())})
    assert set(get_pool(idx).topk(q3)["doc_id"].to_pylist()) == {3}
    # idempotent: tombstoned docs no longer match, so a re-run deletes 0
    assert delete_by_query(idx, "alpha target", mode="and") == 0
    merge_segments(idx)
    assert set(get_pool(idx).topk(q)["doc_id"].to_pylist()) == {2}


def test_realtime_get_sees_updates_deletes_and_readds(tmp_path, ray_session):
    """Solr /get semantics: RTG reflects update_fields, delete, and a
    delete-then-readd immediately — no merge, no searcher reopen — and a
    never-indexed id is simply absent."""
    import pandas as pd
    import pyarrow.parquet as pqt

    from archivesspace_virgo_ray.index.update import realtime_get, update_fields

    base = _mini_corpus(
        [(1, "alpha beta", "en"), (2, "beta gamma", "fr"), (3, "mu nu", "de")]
    )
    readd = _mini_corpus([(2, "omega psi", "es")])
    d = tmp_path
    pqt.write_table(base, str(d / "base.parquet"))
    pqt.write_table(readd, str(d / "readd.parquet"))
    idx = str(d / "idx")
    build_index(str(d / "base.parquet"), idx, BuildConfig(**MINI_CFG), resume=False)

    out = realtime_get(idx, [1, 2, 3, 99], columns=["lang"])
    assert out["doc_id"].tolist() == [1, 2, 3]  # 99 never existed
    assert out["lang"].tolist() == ["en", "fr", "de"]

    update_fields(idx, pd.DataFrame({"doc_id": [1], "lang": ["xx"]}))
    delete_documents(idx, [3])
    out = realtime_get(idx, [1, 2, 3], columns=["lang"])
    assert out["doc_id"].tolist() == [1, 2]
    assert out["lang"].tolist() == ["xx", "fr"]

    add_documents(str(d / "readd.parquet"), idx, BuildConfig(**MINI_CFG),
                  on_conflict="replace")
    out = realtime_get(idx, [1, 2, 3], columns=["lang"])
    assert out["doc_id"].tolist() == [1, 2]
    assert out["lang"].tolist() == ["xx", "es"]  # readd's latest version wins
