"""Tiered (LSM-style) partial merges: fold delta generations into a
combined delta without rewriting the base — bounded read amplification
under continuous adds (the Lucene TieredMergePolicy analog).

Conformance bar: after any sequence of adds / deletes / replaces /
tiered_merge calls, query results stay rank- and score-identical to the
single-process oracle over the live union corpus; a later full
merge_segments must still be byte-identical to a from-scratch rebuild.
"""

import json
import os
import re
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.fsck import (
    FOLDED_LEFTOVER,
    TERMSTATS_LEFTOVER,
    UNCOMMITTED_LEFTOVER,
    fsck_index,
    repair_index,
)
from archivesspace_virgo_ray.index.query import LocalSearcher
from archivesspace_virgo_ray.index.reshard import segments_equal
from archivesspace_virgo_ray.index.update import (
    _cleanup_uncommitted_gens,
    add_documents,
    delete_documents,
    folded_gens,
    list_segment_generations,
    live_gens,
    merge_segments,
    select_fold,
    tiered_merge,
)
from archivesspace_virgo_ray.oracle import OracleIndex

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)
QUERIES = ["the", "def return", "parse_0 index_1", "license import"]
N_BASE, N_DELTA, N_DELTAS = 240, 60, 4


def _ids(t: pa.Table):
    return doc_id_from_key(
        t["repo"].to_pylist(), t["path"].to_pylist(), t["commit"].to_pylist()
    )


def _live_delta_gens(idx: str) -> set[int]:
    out = set()
    for names in list_segment_generations(idx).values():
        for n in live_gens(idx, names):
            m = re.search(r"_g(\d+)$", n)
            if m:
                out.add(int(m.group(1)))
    return out


def _assert_matches_oracle(idx: str, ids, texts, scores: bool = True):
    """Rank identity always; score identity only when the index's global
    stats are live-exact (``scores=False`` between a delete/replace and the
    full merge that folds it into df/avgdl — documented Lucene semantics)."""
    oracle = OracleIndex(list(ids), list(texts))
    searcher = LocalSearcher(idx)
    for q in QUERIES:
        expect = oracle.score_query(q, 10)
        got = searcher.search(q, 10)
        assert [x for x, _ in got] == [x for x, _ in expect], q
        if scores:
            assert [s for _, s in got] == [s for _, s in expect], q


@pytest.fixture(scope="module")
def slices(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiered")
    full = generate_corpus(N_BASE + N_DELTA * N_DELTAS, seed=7)
    base = full.slice(0, N_BASE)
    deltas = [
        full.slice(N_BASE + i * N_DELTA, N_DELTA) for i in range(N_DELTAS)
    ]
    pq.write_table(base, str(d / "base.parquet"))
    for i, t in enumerate(deltas):
        pq.write_table(t, str(d / f"delta{i}.parquet"))
    return str(d), full, base, deltas


def _build_with_deltas(d: str, root, n_deltas: int = N_DELTAS) -> str:
    idx = str(root / "idx")
    build_index(os.path.join(d, "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    for i in range(n_deltas):
        add_documents(os.path.join(d, f"delta{i}.parquet"), idx,
                      BuildConfig(**CFG))
    return idx


def test_select_fold_policy():
    # four same-level gens -> fold them all
    assert select_fold({1: 100, 2: 110, 3: 90, 4: 100}, 4) == [1, 2, 3, 4]
    # below merge_factor -> nothing
    assert select_fold({1: 100, 2: 110, 3: 90}, 4) == []
    # the LOWEST eligible level folds first, higher tiers wait
    sizes = {1: 5000, 2: 5100, 3: 4900, 4: 5050, 5: 10, 6: 11, 7: 9, 8: 10}
    assert select_fold(sizes, 4) == [5, 6, 7, 8]
    # mixed levels below factor each -> nothing (no cross-tier folding)
    assert select_fold({1: 10, 2: 10, 3: 10_000, 4: 10_000}, 4) == []
    with pytest.raises(ValueError):
        select_fold({1: 10}, 1)


def test_tiered_fold_preserves_results(slices, tmp_path_factory, ray_session):
    d, full, base, deltas = slices
    idx = _build_with_deltas(d, tmp_path_factory.mktemp("t1"))
    assert _live_delta_gens(idx) == {1, 2, 3, 4}

    report = tiered_merge(idx, merge_factor=4, concurrency=2)
    assert len(report["rounds"]) == 1
    assert report["rounds"][0]["folds"] == [1, 2, 3, 4]
    new_gen = report["rounds"][0]["new_gen"]
    assert new_gen == 5

    # one combined generation remains; sources gone from disk
    assert _live_delta_gens(idx) == {new_gen}
    assert folded_gens(idx) == {1, 2, 3, 4}
    names = [
        n for names in list_segment_generations(idx).values() for n in names
    ]
    assert not any(re.search(r"_g000[1-4]$", n) for n in names)

    _assert_matches_oracle(idx, _ids(full).tolist(), full["content"].to_pylist())
    audit = fsck_index(idx)
    assert audit["ok"], audit["issues"]

    # idempotent: nothing left at or above the fold threshold
    assert tiered_merge(idx, merge_factor=4)["rounds"] == []


def test_tiered_then_full_merge_is_byte_identical(slices, tmp_path_factory,
                                                  ray_session):
    d, full, base, deltas = slices
    root = tmp_path_factory.mktemp("t2")
    idx = _build_with_deltas(d, root)
    tiered_merge(idx, merge_factor=4, concurrency=2)
    merge_segments(idx, concurrency=2)
    assert all(
        len(live_gens(idx, names)) == 1
        for names in list_segment_generations(idx).values()
    )

    idx_full = str(root / "full")
    full_dir = str(root / "full_corpus")
    os.makedirs(full_dir)
    pq.write_table(full, os.path.join(full_dir, "part-0.parquet"))
    build_index(full_dir, idx_full, BuildConfig(**CFG), resume=False)
    assert segments_equal(idx_full, idx), "merge differs from full rebuild"


def test_tiered_with_delete_and_replace(slices, tmp_path_factory, ray_session):
    d, full, base, deltas = slices
    idx = _build_with_deltas(d, tmp_path_factory.mktemp("t3"))

    # delete two base docs, then REPLACE two delta0 docs with new content
    # (their replaced-away versions ride in a delta generation — the case
    # where a wrong combined mask gen would resurrect or over-mask)
    dead = _ids(base)[:2].tolist()
    delete_documents(idx, dead)
    repl = deltas[0].slice(0, 2)
    new_content = pa.array(
        [c + " tiered replacement text" for c in repl["content"].to_pylist()]
    )
    repl = repl.set_column(
        repl.schema.get_field_index("content"), "content", new_content
    )
    add_documents(
        ray_dataset_from_table(repl), idx, BuildConfig(**CFG),
        on_conflict="replace",
    )

    report = tiered_merge(idx, merge_factor=4, concurrency=2)
    assert report["rounds"], "expected at least one fold"

    live = {}
    for t in [base] + deltas:
        for i, did in enumerate(_ids(t).tolist()):
            live[did] = t["content"][i].as_py()
    for i, did in enumerate(_ids(repl).tolist()):
        live[did] = repl["content"][i].as_py()
    for did in dead:
        live.pop(did)
    # pre-full-merge, df/avgdl are documented-stale (deletes and replaced
    # versions still contribute), so exact oracle identity is only promised
    # AFTER merge_segments. The hard guarantees now: every query still
    # returns results (the negative-idf WAND regression returned []), no
    # dead doc ever surfaces, and the replacement text is searchable.
    searcher = LocalSearcher(idx)
    for q in QUERIES:
        got = searcher.search(q, 10)
        assert got, f"empty result for {q!r} in the stale-stats window"
        assert not ({x for x, _ in got} & set(dead)), q
    hits = {x for x, _ in searcher.search("tiered replacement text", 10)}
    assert set(_ids(repl).tolist()) <= hits

    # a later FULL merge still expunges exactly (stats become live-exact)
    merge_segments(idx, concurrency=2)
    _assert_matches_oracle(idx, live.keys(), live.values())


def ray_dataset_from_table(t: pa.Table):
    import ray

    return ray.data.from_arrow(t)


def test_crash_before_marker_is_invisible_and_retryable(
    slices, tmp_path_factory, ray_session, monkeypatch
):
    d, full, base, deltas = slices
    idx = _build_with_deltas(d, tmp_path_factory.mktemp("t4"))

    import archivesspace_virgo_ray.index.update as upd

    def boom(*a, **k):
        raise RuntimeError("crash before marker commit")

    monkeypatch.setattr(upd, "_commit_gen", boom)
    with pytest.raises(RuntimeError):
        tiered_merge(idx, merge_factor=4, concurrency=2)
    monkeypatch.undo()

    # combined dirs exist but are uncommitted -> invisible; results intact
    assert _live_delta_gens(idx) == {1, 2, 3, 4}
    _assert_matches_oracle(idx, _ids(full).tolist(), full["content"].to_pylist())

    # retry cleans the leftovers and completes
    report = tiered_merge(idx, merge_factor=4, concurrency=2)
    assert report["rounds"][0]["folds"] == [1, 2, 3, 4]
    _assert_matches_oracle(idx, _ids(full).tolist(), full["content"].to_pylist())

    # a full merge commits the same way: crashed before its marker, its
    # output and the term-stats version it sealed are invisible and the
    # answers stay the pre-merge ones, fsck names both and repair reaps
    # them; the retry completes
    before = {n for ns in list_segment_generations(idx).values() for n in ns}
    monkeypatch.setattr(upd, "_commit_gen", boom)
    with pytest.raises(RuntimeError):
        merge_segments(idx, concurrency=2)
    monkeypatch.undo()
    outputs = {n for ns in list_segment_generations(idx).values()
               for n in ns} - before
    assert outputs and all(n.endswith("_g0006") for n in outputs)
    _assert_matches_oracle(idx, _ids(full).tolist(), full["content"].to_pylist())
    assert set(fsck_index(idx)["issue_codes"]) == {UNCOMMITTED_LEFTOVER,
                                                   TERMSTATS_LEFTOVER}
    after = repair_index(idx)
    assert after["ok"], after["issues"]
    assert not any(n in outputs for ns in list_segment_generations(idx).values()
                   for n in ns)
    assert len(merge_segments(idx, concurrency=2))
    _assert_matches_oracle(idx, _ids(full).tolist(), full["content"].to_pylist())


def test_crash_before_source_reap_heals(slices, tmp_path_factory, ray_session,
                                        monkeypatch):
    d, full, base, deltas = slices
    idx = _build_with_deltas(d, tmp_path_factory.mktemp("t5"))
    seg_root = os.path.join(idx, "segments")

    real_rmtree = shutil.rmtree

    def keep_folded(path, *a, **k):
        if re.search(r"_g\d+$", str(path)):
            return  # simulate dying before the reap removed this source
        return real_rmtree(path, *a, **k)

    monkeypatch.setattr(shutil, "rmtree", keep_folded)
    tiered_merge(idx, merge_factor=4, concurrency=2)
    monkeypatch.undo()

    leftovers = [n for n in os.listdir(seg_root)
                 if re.search(r"_g000[1-4]$", n)]
    assert leftovers, "test setup: sources should have survived"

    # invisible to readers, results exact, audit names the finding
    assert _live_delta_gens(idx) == {5}
    _assert_matches_oracle(idx, _ids(full).tolist(), full["content"].to_pylist())
    audit = fsck_index(idx)
    assert not audit["ok"]
    assert set(audit["issue_codes"]) == {FOLDED_LEFTOVER}

    # cleanup path 1: repair_index reaps them
    after = repair_index(idx)
    assert after["ok"], after["issues"]
    assert not any(re.search(r"_g000[1-4]$", n) for n in os.listdir(seg_root))
    _assert_matches_oracle(idx, _ids(full).tolist(), full["content"].to_pylist())


def test_cleanup_reaps_folded_leftovers(slices, tmp_path_factory, ray_session,
                                        monkeypatch):
    d, full, base, deltas = slices
    idx = _build_with_deltas(d, tmp_path_factory.mktemp("t6"))
    seg_root = os.path.join(idx, "segments")

    real_rmtree = shutil.rmtree
    monkeypatch.setattr(
        shutil, "rmtree",
        lambda p, *a, **k: None if re.search(r"_g\d+$", str(p))
        else real_rmtree(p, *a, **k),
    )
    tiered_merge(idx, merge_factor=4, concurrency=2)
    monkeypatch.undo()
    assert any(re.search(r"_g000[1-4]$", n) for n in os.listdir(seg_root))

    # cleanup path 2: the shared uncommitted/folded sweep (runs at the top
    # of add_documents and tiered_merge)
    assert _cleanup_uncommitted_gens(idx)
    assert not any(re.search(r"_g000[1-4]$", n) for n in os.listdir(seg_root))
    _assert_matches_oracle(idx, _ids(full).tolist(), full["content"].to_pylist())


def test_tiered_merge_is_deterministic(slices, tmp_path_factory, ray_session):
    d, full, base, deltas = slices
    roots = [tmp_path_factory.mktemp("t7a"), tmp_path_factory.mktemp("t7b")]
    idxs = [_build_with_deltas(d, r) for r in roots]
    for idx in idxs:
        tiered_merge(idx, merge_factor=4, concurrency=2)
    a, b = idxs
    names_a = sorted(
        n for n in os.listdir(os.path.join(a, "segments"))
        if re.search(r"_g\d+$", n)
    )
    names_b = sorted(
        n for n in os.listdir(os.path.join(b, "segments"))
        if re.search(r"_g\d+$", n)
    )
    assert names_a == names_b and names_a
    for n in names_a:
        for f in ("terms.parquet", "blocks.parquet", "docs.bin", "postings.bin"):
            pa_ = open(os.path.join(a, "segments", n, f), "rb").read()
            pb_ = open(os.path.join(b, "segments", n, f), "rb").read()
            assert pa_ == pb_, f"{n}/{f} differs between identical runs"


def test_cli_tiered_merge(slices, tmp_path_factory, ray_session, capsys):
    d, full, base, deltas = slices
    idx = _build_with_deltas(d, tmp_path_factory.mktemp("t8"))
    from archivesspace_virgo_ray import cli

    rc = cli.main(["tiered-merge", "--index", idx, "--merge-factor", "4"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    report = json.loads(out)
    assert report["rounds"][0]["folds"] == [1, 2, 3, 4]
    import ray as _ray

    assert _ray.is_initialized()  # CLI must not tear down the session
