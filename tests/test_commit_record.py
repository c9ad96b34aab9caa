"""One commit record per generation.

Every commit — build, add, replace-add, delete, update_fields, tiered fold,
full merge, vacuum — writes new files under names no commit took before and
publishes them with ONE new marker. Nothing a reader may hold is renamed
over or truncated in place (the commit probe), and a reader held across
commits either keeps answering its own commit or, once the reap rule
removed its term-stats version, reopens whole at the newest one.
"""

import builtins
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.index import update
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.oracle import OracleIndex

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)
QUERIES = ("def return", "self import", "the")


@pytest.fixture()
def corpus(tmp_path):
    full = generate_corpus(280, seed=29)
    src = tmp_path / "corp"
    src.mkdir()
    pq.write_table(full.slice(0, 200), str(src / "base.parquet"))
    for i in range(4):
        pq.write_table(full.slice(200 + 20 * i, 20), str(src / f"d{i}.parquet"))
    ids = doc_id_from_key(full["repo"].to_pylist(), full["path"].to_pylist(),
                          full["commit"].to_pylist()).tolist()
    return str(src), ids, full["content"].to_pylist()


def _in_place_writes(fn) -> list[str]:
    """Run ``fn`` and return every rename onto an existing path and every
    truncating open of an existing file it made (the write lock excluded)."""
    seen: list[str] = []
    real_replace, real_rename, real_open = os.replace, os.rename, builtins.open

    def onto(path) -> bool:
        return (os.path.lexists(path)
                and os.path.basename(str(path)) != "write.lock")

    def replace(src, dst, *a, **k):
        if onto(dst):
            seen.append(f"rename onto {dst}")
        return real_replace(src, dst, *a, **k)

    def rename(src, dst, *a, **k):
        if onto(dst):
            seen.append(f"rename onto {dst}")
        return real_rename(src, dst, *a, **k)

    def open_(file, mode="r", *a, **k):
        if isinstance(file, (str, os.PathLike)) and "w" in mode and onto(file):
            seen.append(f"truncating open of {file}")
        return real_open(file, mode, *a, **k)

    mp = pytest.MonkeyPatch()
    mp.setattr(os, "replace", replace)
    mp.setattr(os, "rename", rename)
    mp.setattr(builtins, "open", open_)
    try:
        fn()
    finally:
        mp.undo()
    return seen


def test_no_commit_writes_in_place(tmp_path, corpus, ray_session, monkeypatch):
    src, ids, _texts = corpus
    # compaction rewrites run in this process, where the probe sees them
    monkeypatch.setattr(update, "_rewrite_pairs",
                        lambda index_dir, work, tombs, concurrency, fold: [
                            update.rewrite_segment(index_dir, s, b, names,
                                                   tombs, fold)
                            for s, b, names in work])
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(**CFG)

    def add(name, **kw):
        return lambda: update.add_documents(os.path.join(src, name), idx,
                                            BuildConfig(**CFG), **kw)

    commits = [
        ("build", lambda: build_index(os.path.join(src, "base.parquet"), idx,
                                      cfg, resume=False)),
        ("add", add("d0.parquet")),
        ("replace-add", add("d0.parquet", on_conflict="replace")),
        ("delete", lambda: update.delete_documents(idx, ids[:12])),
        ("update_fields", lambda: update.update_fields(idx, pd.DataFrame(
            {"doc_id": ids[20:23], "lang": ["zz"] * 3}))),
        ("add", add("d1.parquet")),
        ("tiered fold", lambda: update.tiered_merge(idx, merge_factor=2,
                                                    concurrency=1)),
        ("full merge", lambda: update.merge_segments(idx, concurrency=1)),
        ("vacuum", lambda: update.vacuum_docs(idx)),
    ]
    found = {}
    for name, fn in commits:
        before = update.committed_gens(idx) if name != "build" else set()
        found[name] = found.get(name, []) + _in_place_writes(fn)
        assert len(update.committed_gens(idx)) > len(before), \
            f"{name} committed no marker"
    assert not any(found.values()), found


def test_reader_held_across_two_commits_reopens_at_newest(
        tmp_path, corpus, ray_session):
    """A store, a LocalSearcher and a pool opened before two commits: the
    reap rule removed their term-stats version. The store refuses to plan
    (never a partial vocabulary); the searcher and the pool reopen at the
    newest marker and answer as the oracle over the live corpus does."""
    from archivesspace_virgo_ray.index.query import (
        LocalSearcher,
        TermStatsStore,
        _StaleIndexRead,
        get_pool,
        shutdown_pools,
    )
    from archivesspace_virgo_ray.index.segments import newest_gen

    src, ids, texts = corpus
    idx = str(tmp_path / "idx")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    shutdown_pools()
    try:
        store = TermStatsStore(idx)
        searcher = LocalSearcher(idx)
        pool = get_pool(idx)
        version = store._ts_dir
        for name in ("d0.parquet", "d1.parquet"):
            update.add_documents(os.path.join(src, name), idx,
                                 BuildConfig(**CFG))
        assert not os.path.exists(version)
        for q in QUERIES:
            with pytest.raises(_StaleIndexRead):
                store.plan_query(q)

        oracle = OracleIndex(ids[:240], texts[:240])
        for q in QUERIES:
            assert searcher.search(q, 10) == oracle.score_query(q, 10), q
        assert searcher.store.marker == newest_gen(idx)

        batch = pa.table({"query_id": pa.array(range(len(QUERIES)), pa.int64()),
                          "text": pa.array(QUERIES),
                          "k": pa.array([10] * len(QUERIES), pa.int32())})
        got = pool.topk(batch)  # the held pool, not a fresh get_pool
        assert pool.marker == newest_gen(idx)
        for qid, q in enumerate(QUERIES):
            rows = got.filter(pa.compute.equal(got["query_id"], qid))
            assert list(zip(rows["doc_id"].to_pylist(),
                            rows["score"].to_pylist())) == \
                oracle.score_query(q, 10), q
    finally:
        shutdown_pools()


def test_a_reaped_version_vanishes_whole(tmp_path, corpus, ray_session,
                                         monkeypatch):
    """The reap renames a version away before it removes it. Caught with
    one bucket of the version removed and the rest still on disk, a store
    pinned at the reaped version refuses every cold bucket — none reads as
    empty, so no plan sees part of a vocabulary — and the crashed reap's
    leftover is an fsck finding the next reap removes."""
    import shutil

    from archivesspace_virgo_ray.index.fsck import fsck_index
    from archivesspace_virgo_ray.index.query import TermStatsStore, _StaleIndexRead

    src, _ids, _texts = corpus
    idx = str(tmp_path / "idx")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    store = TermStatsStore(idx)
    buckets = sorted(int(n.split("=")[1]) for n in os.listdir(store._ts_dir))
    assert len(buckets) > 1 and not store._buckets
    update.add_documents(os.path.join(src, "d0.parquet"), idx,
                         BuildConfig(**CFG))

    real_rmtree = shutil.rmtree
    reaped = []

    def rmtree_one_bucket(path, *a, **k):
        # a reap stopped after the first bucket of the version is gone
        if os.path.basename(str(path)).startswith((".reap-", "termstats-")):
            reaped.append(path)
            return real_rmtree(os.path.join(path, f"bucket={buckets[0]}"))
        return real_rmtree(path, *a, **k)

    monkeypatch.setattr(shutil, "rmtree", rmtree_one_bucket)
    update.add_documents(os.path.join(src, "d1.parquet"), idx,
                         BuildConfig(**CFG))
    monkeypatch.undo()
    assert reaped and os.path.isdir(reaped[0])
    for b in buckets:
        with pytest.raises(_StaleIndexRead):
            store._load_bucket(b)
    assert not store._buckets

    assert fsck_index(idx)["issue_codes"] == ["termstats_leftover"]
    update.delete_documents(idx, _ids[:1])  # the next commit's reap
    assert fsck_index(idx)["ok"]


def test_repinning_gives_up_behind_a_writer_that_never_pauses(
        tmp_path, corpus, ray_session, monkeypatch):
    """A reader re-pins a bounded number of times, then raises."""
    from archivesspace_virgo_ray.index import query

    src, _ids, _texts = corpus
    idx = str(tmp_path / "idx")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    searcher = query.LocalSearcher(idx)
    opens = []
    monkeypatch.setattr(searcher, "_open", lambda: opens.append(1))

    def always_stale(*a, **k):
        raise query._StaleIndexRead(idx)

    monkeypatch.setattr(query, "_plan_batch", always_stale)
    with pytest.raises(RuntimeError, match="reaped"):
        searcher.search("the", 5)
    assert len(opens) == query._REPIN_ATTEMPTS


def test_an_older_index_refuses_to_open(tmp_path, corpus, ray_session):
    """An index whose commit state lived outside its markers (an older
    PIPELINE_VERSION: ``stats.json`` beside markers without stats) is not
    read half-understood: every way in raises, naming its version and
    saying to rebuild."""
    import json

    from archivesspace_virgo_ray.index.query import LocalSearcher, bm25_topk
    from archivesspace_virgo_ray.index.segments import marker_path

    src, _ids, _texts = corpus
    idx = str(tmp_path / "idx")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    with open(os.path.join(idx, "_global", "stats.json"), "w") as f:
        json.dump({"n_docs": 200, "pipeline_version": "avr-index-8"}, f)
    with open(marker_path(idx, 0), "w") as f:
        json.dump({"n_docs": 0, "replaces": []}, f)
    batch = pa.table({"query_id": pa.array([0], pa.int64()),
                      "text": pa.array(["the"]), "k": pa.array([5], pa.int32())})
    for open_it in (lambda: LocalSearcher(idx), lambda: bm25_topk(idx, batch),
                    lambda: update.add_documents(os.path.join(src, "d0.parquet"),
                                                 idx, BuildConfig(**CFG)),
                    lambda: build_index(os.path.join(src, "base.parquet"), idx,
                                        BuildConfig(**CFG))):
        with pytest.raises(ValueError, match="'avr-index-8'.*rebuild"):
            open_it()
