"""Readers never block and never observe a half-applied mutation.

The write path is single-writer (write.lock) but readers take NO lock.
Two guarantees under test, each hammered while a mutator thread runs the
full lifecycle (adds, tiered folds, deletes, full merge, maintain+vacuum):

1. **Scorer atomicity**: a freshly-constructed ShardScorer always reflects
   exactly one committed state of its shard — construction snapshots the
   marker set once, retries when a commit races it (_StaleIndexRead /
   FileNotFoundError), and once built is immune to concurrent rmtrees
   (mmapped inodes).
2. **Pool snapshot consistency**: get_pool's post-build signature
   validation means a served boolean match reflects ONE committed state
   across ALL shards, not a mix.

Committed states are computed up front on a twin index by running the
same op sequence sequentially.
"""

import os
import threading

import numpy as np
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.postings import decode_posting_list
from archivesspace_virgo_ray.index.query import ShardScorer, matching_doc_ids
from archivesspace_virgo_ray.index.update import (
    add_documents,
    delete_documents,
    maintain,
    merge_segments,
    tiered_merge,
)

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)
# sentinel term present in every doc — its match set IS the visible corpus
SENTINEL = "the"


def _shard_ids(idx: str, shard: int) -> tuple:
    """Sentinel match ids for ONE shard via a fresh ShardScorer — the
    scorer-atomicity surface (exercises the construction race + retry)."""
    sc = ShardScorer(idx, shard)
    ids = []
    for _b, readers in sc.readers.items():
        for gen, reader in readers:
            e = reader.term_entry(SENTINEL)
            if e is None:
                continue
            docs, _tfs, _dls = decode_posting_list(e["payload"],
                                                   e["block_table"])
            mask = sc.masked_for_gen(gen)
            if mask is not None and len(mask):
                pos = np.searchsorted(mask, docs)
                ok = pos < len(mask)
                dead = np.zeros(len(docs), dtype=bool)
                dead[ok] = mask[pos[ok]] == docs[ok]
                docs = docs[~dead]
            ids.append(docs)
    out = np.sort(np.concatenate(ids)) if ids else np.empty(0, np.int64)
    return tuple(out.tolist())


def _ops(idx: str, src: str, victims: list[int]):
    """The mutation sequence, shared by the twin (sequential) run and the
    race run."""
    yield lambda: add_documents(os.path.join(src, "d1.parquet"), idx,
                                BuildConfig(**CFG))
    yield lambda: tiered_merge(idx, merge_factor=2, concurrency=2)
    yield lambda: add_documents(os.path.join(src, "d2.parquet"), idx,
                                BuildConfig(**CFG))
    yield lambda: delete_documents(idx, victims)
    yield lambda: merge_segments(idx, concurrency=2)
    yield lambda: add_documents(os.path.join(src, "d3.parquet"), idx,
                                BuildConfig(**CFG))
    yield lambda: maintain(idx, merge_factor=2, dead_ratio=0.001,
                           concurrency=2)


@pytest.fixture()
def corpus(tmp_path):
    full = generate_corpus(260, seed=23)
    base = full.slice(0, 200)
    src = tmp_path / "corp"
    src.mkdir()
    pq.write_table(base, str(src / "base.parquet"))
    for i, name in enumerate(("d1", "d2", "d3")):
        pq.write_table(full.slice(200 + 20 * i, 20),
                       str(src / f"{name}.parquet"))
    base_ids = doc_id_from_key(base["repo"].to_pylist(),
                               base["path"].to_pylist(),
                               base["commit"].to_pylist())
    victims = sorted(set(base_ids.tolist()))[:15]
    return str(src), victims


def _race(idx, src, victims, observe):
    """Run the op sequence in a thread while calling ``observe()`` from
    this thread; returns (observations, mutator_errors)."""
    mut_err: list[BaseException] = []

    def mutate():
        try:
            for op in _ops(idx, src, victims):
                op()
        except BaseException as e:  # pragma: no cover - failure detail
            mut_err.append(e)

    t = threading.Thread(target=mutate)
    t.start()
    observed = []
    try:
        while t.is_alive():
            observed.append(observe())
    finally:
        # always join: an observe() failure must not leave the mutator
        # racing pytest's tmp_path teardown (that cascade kills the
        # whole pytest process with no traceback)
        t.join()
    observed.append(observe())  # final state
    return observed, mut_err


def test_shard_scorers_observe_only_committed_states(tmp_path, corpus,
                                                     ray_session):
    src, victims = corpus
    twin = str(tmp_path / "twin")
    build_index(os.path.join(src, "base.parquet"), twin, BuildConfig(**CFG),
                resume=False)
    per_shard = {s: {_shard_ids(twin, s)} for s in range(CFG["n_shards"])}
    for op in _ops(twin, src, victims):
        op()
        for s in range(CFG["n_shards"]):
            per_shard[s].add(_shard_ids(twin, s))
    assert all(len(v) >= 4 for v in per_shard.values())

    idx = str(tmp_path / "race")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)

    def observe():
        return [(s, _shard_ids(idx, s)) for s in range(CFG["n_shards"])]

    observed, mut_err = _race(idx, src, victims, observe)
    assert not mut_err, mut_err
    flat = [(s, ids) for obs in observed for (s, ids) in obs]
    bad = [(s, ids) for s, ids in flat if ids not in per_shard[s]]
    assert not bad, f"{len(bad)}/{len(flat)} shard reads matched no committed state"
    assert len(flat) >= 10  # the reader actually raced the mutations
    # final state converged
    for s, ids in observed[-1]:
        assert ids == _shard_ids(twin, s)


def test_pool_matches_observe_one_state_across_shards(tmp_path, corpus,
                                                      ray_session):
    src, victims = corpus
    twin = str(tmp_path / "twin2")
    build_index(os.path.join(src, "base.parquet"), twin, BuildConfig(**CFG),
                resume=False)
    states = {tuple(matching_doc_ids(twin, SENTINEL, mode="or").tolist())}
    for op in _ops(twin, src, victims):
        op()
        states.add(tuple(matching_doc_ids(twin, SENTINEL, mode="or").tolist()))
    assert len(states) >= 4

    idx = str(tmp_path / "race2")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)

    def observe():
        return tuple(matching_doc_ids(idx, SENTINEL, mode="or").tolist())

    observed, mut_err = _race(idx, src, victims, observe)
    assert not mut_err, mut_err
    bad = [o for o in observed if o not in states]
    assert not bad, (
        f"{len(bad)}/{len(observed)} pool reads mixed states across shards")
    assert observed[-1] == tuple(matching_doc_ids(twin, SENTINEL,
                                                  mode="or").tolist())


def _live_postings(sc: ShardScorer) -> dict:
    """(bucket, term) -> sorted (doc, tf, dl) of every live posting a
    scorer holds, tombstones applied per generation."""
    out: dict = {}
    for b, readers in sc.readers.items():
        for gen, reader in readers:
            mask = sc.masked_for_gen(gen)
            for term in reader.terms["term"].to_pylist():
                e = reader.term_entry(term)
                docs, tfs, dls = decode_posting_list(e["payload"],
                                                     e["block_table"])
                keep = slice(None) if mask is None else ~np.isin(docs, mask)
                out.setdefault((b, term), []).extend(zip(
                    docs[keep].tolist(), tfs[keep].tolist(), dls[keep].tolist()))
    return {key: sorted(v) for key, v in out.items() if v}


def _rewrite_in_process(monkeypatch) -> None:
    """Run a compaction's segment rewrites in this process, so a hook
    installed here sees every step of its commit."""
    from archivesspace_virgo_ray.index import update

    def rewrite_pairs(index_dir, work, tombs, concurrency, fold=None):
        return [update.rewrite_segment(index_dir, s, b, names, tombs, fold)
                for s, b, names in work]

    monkeypatch.setattr(update, "_rewrite_pairs", rewrite_pairs)


def test_reader_held_between_opens_sees_one_segment_version(
        tmp_path, corpus, ray_session, monkeypatch):
    """Deterministic: a reader that has read a segment's doc table is held
    while a full merge writes that pair's output, commits it and deletes
    the segment the reader is opening. It must end up with ONE version of
    the pair (it retries from a fresh snapshot), never the old doc table
    with the new term dict and postings."""
    from archivesspace_virgo_ray.index import segments, update

    src, _victims = corpus
    idx = str(tmp_path / "idx")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    before = ShardScorer(idx, 0, buckets=[0])
    ids = sorted({int(d) for r in before.readers[0]
                  for d in r[1].doc_map.tolist()})
    # deletes in this pair make the merge rewrite its doc table
    delete_documents(idx, ids[::5])
    want = _live_postings(ShardScorer(idx, 0, buckets=[0]))
    real = segments.decode_doc_table
    fired = []

    def hold_and_merge(buf, n_docs):
        out = real(buf, n_docs)
        if not fired:
            fired.append(True)
            update.merge_segments(idx, concurrency=1)
        return out

    _rewrite_in_process(monkeypatch)
    monkeypatch.setattr(segments, "decode_doc_table", hold_and_merge)
    held = ShardScorer(idx, 0, buckets=[0])
    monkeypatch.undo()
    assert fired
    after = ShardScorer(idx, 0, buckets=[0])
    assert len(after.readers[0][0][1].doc_map) < len(ids)  # expunged
    assert _live_postings(after) == want
    assert _live_postings(held) == want


def test_scorers_during_a_full_merge_see_one_state(
        tmp_path, corpus, ray_session, monkeypatch):
    """Deterministic: build shard scorers after every rename a full merge
    makes (its segment writes, marker, stats), with the rewrites run in
    process. Each must hold the live postings of the index before the
    merge or after it — never a pair whose segment is missing because it
    was renamed away at that moment."""
    from archivesspace_virgo_ray.index import update

    src, _victims = corpus
    idx = str(tmp_path / "idx")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))

    def state():
        return [_live_postings(ShardScorer(idx, s))
                for s in range(CFG["n_shards"])]

    pre = state()
    real = os.replace
    seen = []

    def observe(a, b):
        real(a, b)
        seen.append(state())

    _rewrite_in_process(monkeypatch)
    monkeypatch.setattr(os, "replace", observe)
    assert len(update.merge_segments(idx, concurrency=1))
    monkeypatch.undo()
    post = state()
    assert len(seen) > 3
    bad = [i for i, st in enumerate(seen) if st not in (pre, post)]
    assert not bad, f"{len(bad)}/{len(seen)} scorers saw neither state"


def _reader_state(idx: str) -> tuple:
    """What a reader opened now plans and scores with: a TermStatsStore's
    stats and the df of the query vocabulary, and each shard's
    ShardScorer's stats and live postings."""
    from archivesspace_virgo_ray.index.query import TermStatsStore

    store = TermStatsStore(idx)
    terms = sorted({t for q in ("def return", "self import", "the license")
                    for t in store._analyze(q)})
    plan = (store.stats["n_docs"], store.stats["total_len"],
            tuple(store._term_stats(terms, store._bucket_of(terms))))
    scorers = []
    for s in range(CFG["n_shards"]):
        sc = ShardScorer(idx, s)
        scorers.append((sc.stats["n_docs"], sc.avgdl, _live_postings(sc)))
    return plan, tuple(map(repr, scorers))


def _observe_every_write(monkeypatch, observe) -> None:
    """Call ``observe()`` after each file write of a commit: every rename,
    unlink and tree removal, and each write-mode file's close."""
    import builtins
    import shutil

    busy = []

    def after(fn):
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not busy:
                busy.append(1)
                try:
                    observe()
                finally:
                    busy.clear()
            return out
        return run

    class Closing:
        def __init__(self, f):
            self._f = f

        def __getattr__(self, name):
            return getattr(self._f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.close()

        def close(self):
            if not self._f.closed:
                after(self._f.close)()

    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return Closing(f) if any(c in mode for c in "wax+") and not busy else f

    for mod, name in ((os, "replace"), (os, "rename"), (os, "unlink"),
                      (os, "remove"), (shutil, "rmtree")):
        monkeypatch.setattr(mod, name, after(getattr(mod, name)))
    monkeypatch.setattr(builtins, "open", open_)


def test_readers_at_every_write_of_a_commit_see_one_state(
        tmp_path, corpus, ray_session, monkeypatch):
    """Deterministic: a TermStatsStore and a ShardScorer per shard opened
    after every file write of an add, a delete, an update_fields and a
    vacuum. Each must plan and score with exactly the stats and df of the
    index before the commit or exactly those after it — never new term
    stats with old corpus stats (a commit spread over several files)."""
    import pandas as pd

    from archivesspace_virgo_ray.index.update import update_fields, vacuum_docs

    src, victims = corpus
    idx = str(tmp_path / "idx")
    build_index(os.path.join(src, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    commits = [
        ("add", lambda: add_documents(os.path.join(src, "d1.parquet"), idx,
                                      BuildConfig(**CFG))),
        ("delete", lambda: delete_documents(idx, victims)),
        ("update_fields", lambda: update_fields(idx, pd.DataFrame(
            {"doc_id": live[:3], "lang": ["zz"] * 3}))),
        ("vacuum", lambda: vacuum_docs(idx)),
    ]
    for name, commit in commits:
        if name == "vacuum":
            merge_segments(idx, concurrency=1)
        live = _live_ids(idx)
        pre = _reader_state(idx)
        seen = []
        with monkeypatch.context() as mp:
            _observe_every_write(mp, lambda: seen.append(_reader_state(idx)))
            commit()
        post = _reader_state(idx)
        assert seen, name
        for i, st in enumerate(seen):
            assert st[0] in (pre[0], post[0]), \
                f"{name}: store at write {i} planned with neither state"
            assert st[1] in (pre[1], post[1]), \
                f"{name}: scorers at write {i} scored with neither state"


def _live_ids(idx: str) -> list[int]:
    """Doc ids the index answers for: the sentinel's matches."""
    return [d for s in range(CFG["n_shards"]) for d in _shard_ids(idx, s)]
