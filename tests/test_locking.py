"""Single-writer lock (Lucene write.lock analog, index/locking.py).

Contract under test:
- concurrent mutators SERIALIZE (threads via the per-index RLock,
  processes via flock) and the result equals running them sequentially —
  no lost stats updates, no duplicate generation numbers;
- a foreign holder makes mutating entry points raise IndexLockedError
  after the timeout, and the lock auto-releases when the holder dies;
- the lock is reentrant within a thread (delete_by_query calls
  delete_documents; callers may pre-hold write_lock);
- a full rebuild (resume=False) wipes the index but PRESERVES the held
  write.lock file;
- acquiring rewrites the diagnostics payload in place: the lock file keeps
  one size and is never truncated, and ``lock_owner`` still parses it.
"""

import os
import subprocess
import sys
import textwrap
import threading

import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.fsck import fsck_index
from archivesspace_virgo_ray.index.locking import (
    IndexLockedError,
    lock_owner,
    lock_path,
    write_lock,
)
from archivesspace_virgo_ray.index.query import LocalSearcher
from archivesspace_virgo_ray.index.segments import read_stats
from archivesspace_virgo_ray.index.update import (
    add_documents,
    delete_documents,
    list_segment_generations,
)
from archivesspace_virgo_ray.oracle import OracleIndex

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("lockcorp")
    full = generate_corpus(360, seed=7)
    base = full.slice(0, 240)
    d1, d2 = full.slice(240, 60), full.slice(300, 60)
    pq.write_table(base, str(d / "base.parquet"))
    pq.write_table(d1, str(d / "d1.parquet"))
    pq.write_table(d2, str(d / "d2.parquet"))
    return str(d), full


def _build(d, tmp_path_factory, name):
    idx = str(tmp_path_factory.mktemp(name) / "idx")
    build_index(os.path.join(d, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    return idx


def test_concurrent_thread_adds_serialize(corpora, tmp_path_factory, ray_session):
    d, full = corpora
    idx = _build(d, tmp_path_factory, "idx_lock_threads")

    errs: list[BaseException] = []

    def adder(part):
        try:
            add_documents(os.path.join(d, part), idx, BuildConfig(**CFG))
        except BaseException as e:  # pragma: no cover - failure detail
            errs.append(e)

    ts = [threading.Thread(target=adder, args=(p,)) for p in ("d1.parquet",
                                                              "d2.parquet")]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not errs, errs

    # both adds landed as DISTINCT generations (the racy _next_gen would
    # have collided), stats saw both increments (no lost update) …
    gens = {
        int(n.rsplit("_g", 1)[1])
        for names in list_segment_generations(idx).values()
        for n in names
        if "_g" in n
    }
    assert gens == {1, 2}
    assert read_stats(idx)["n_docs"] == 360
    assert fsck_index(idx)["ok"]

    # … and ranking equals the union oracle (same bar as sequential adds)
    ids = doc_id_from_key(full["repo"].to_pylist(), full["path"].to_pylist(),
                          full["commit"].to_pylist())
    oracle = OracleIndex(ids.tolist(), full["content"].to_pylist())
    got = LocalSearcher(idx).search("def return", 10)
    expect = oracle.score_query("def return", 10)
    assert [x for x, _ in got] == [x for x, _ in expect]


def test_foreign_holder_blocks_then_autoreleases(corpora, tmp_path_factory,
                                                 ray_session, monkeypatch):
    d, _full = corpora
    idx = _build(d, tmp_path_factory, "idx_lock_proc")

    holder = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(f"""
            import fcntl, os, sys
            fd = os.open({lock_path(idx)!r}, os.O_RDWR | os.O_CREAT)
            fcntl.flock(fd, fcntl.LOCK_EX)
            print("held", flush=True)
            sys.stdin.read()   # hold until killed
        """)],
        stdout=subprocess.PIPE, stdin=subprocess.PIPE, text=True,
    )
    try:
        assert holder.stdout.readline().strip() == "held"
        monkeypatch.setenv("AVR_LOCK_TIMEOUT_S", "0.3")
        with pytest.raises(IndexLockedError, match="write-locked"):
            delete_documents(idx, [123])
    finally:
        holder.kill()
        holder.wait()
    # holder died -> kernel released the flock; no stale-lock cleanup needed
    assert delete_documents(idx, [123]) >= 1


def test_reentrant_within_thread(corpora, tmp_path_factory, ray_session):
    d, _full = corpora
    idx = _build(d, tmp_path_factory, "idx_lock_reent")
    with write_lock(idx):
        with write_lock(idx):
            delete_documents(idx, [1, 2])  # locked_on re-enters fine


def test_rebuild_preserves_held_lock(corpora, tmp_path_factory, ray_session):
    d, _full = corpora
    idx = _build(d, tmp_path_factory, "idx_lock_rebuild")
    ino_before = os.stat(lock_path(idx)).st_ino
    # second full rebuild wipes the old index contents under its own lock
    build_index(os.path.join(d, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    assert os.stat(lock_path(idx)).st_ino == ino_before
    assert read_stats(idx)["n_docs"] == 240


def test_lock_payload_fixed_size_without_truncate(tmp_path, monkeypatch):
    import json
    import socket

    def no_truncate(*_a):
        raise AssertionError("write_lock must not truncate the lock file")

    monkeypatch.setattr(os, "ftruncate", no_truncate)
    idx = str(tmp_path / "idx")
    sizes = []
    for _ in range(4):
        with write_lock(idx):
            sizes.append(os.path.getsize(lock_path(idx)))
    assert len(set(sizes)) == 1
    owner = lock_owner(idx)
    assert owner["pid"] == os.getpid()
    assert owner["host"] == socket.gethostname()
    assert isinstance(owner["acquired_at"], float)

    # a longer payload left by an earlier holder is fully overwritten
    with open(lock_path(idx), "w") as f:
        json.dump({"pid": 1, "host": "h" * 300, "acquired_at": 0.0}, f)
    long_size = os.path.getsize(lock_path(idx))
    with write_lock(idx):
        pass
    assert os.path.getsize(lock_path(idx)) == long_size
    assert lock_owner(idx)["pid"] == os.getpid()
