"""maintain() policy pass + vacuum_docs (index/update.py).

Conformance bar: after deletes/replaces, maintain's merge+vacuum leaves an
index whose ranking, stats, forward table and tombstone bookkeeping all
equal a from-scratch rebuild over the live corpus — and the garbage
metric actually resets so the next maintain no-ops.
"""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.fsck import fsck_index, repair_index
from archivesspace_virgo_ray.index.query import LocalSearcher
from archivesspace_virgo_ray.index.segments import read_stats
from archivesspace_virgo_ray.index.update import (
    add_documents,
    delete_documents,
    list_segment_generations,
    maintain,
    vacuum_docs,
)
from archivesspace_virgo_ray.oracle import OracleIndex

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)


def _ids(t: pa.Table) -> np.ndarray:
    return doc_id_from_key(
        t["repo"].to_pylist(), t["path"].to_pylist(), t["commit"].to_pylist()
    )


@pytest.fixture()
def built(tmp_path, ray_session):
    full = generate_corpus(300, seed=11)
    base, d1, d2 = full.slice(0, 200), full.slice(200, 50), full.slice(250, 50)
    src = tmp_path / "corp"
    src.mkdir()
    for name, part in [("base", base), ("d1", d1), ("d2", d2)]:
        pq.write_table(part, str(src / f"{name}.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src / "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    return idx, str(src), full


def test_maintain_folds_without_merging(built):
    idx, src, full = built
    for part in ("d1.parquet", "d2.parquet"):
        add_documents(os.path.join(src, part), idx, BuildConfig(**CFG))

    rep = maintain(idx, merge_factor=2, dead_ratio=0.5)
    assert rep["tiered"]["rounds"], "two same-tier gens should fold"
    assert rep["merged_pairs"] == 0 and rep["garbage_fraction"] == 0.0
    # base untouched: the fold produced a combined DELTA generation
    assert any(
        "_g" in n
        for names in list_segment_generations(idx).values()
        for n in names
    )
    oracle = OracleIndex(_ids(full).tolist(), full["content"].to_pylist())
    got = LocalSearcher(idx).search("def return", 10)
    assert [x for x, _ in got] == [x for x, _ in oracle.score_query("def return", 10)]


def test_maintain_merges_and_vacuums_past_dead_ratio(built, tmp_path):
    idx, src, full = built
    d1 = pq.read_table(os.path.join(src, "d1.parquet"))
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))

    # replace 50 docs (the whole delta) and delete 40 of the base docs:
    # garbage = 50 replaced-away versions + 40 dead > 10 % of 250 live
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG),
                  on_conflict="replace")
    base_ids = _ids(pq.read_table(os.path.join(src, "base.parquet")))
    victims = sorted(set(base_ids.tolist()))[:40]
    delete_documents(idx, victims)

    rep = maintain(idx, merge_factor=2, dead_ratio=0.10)
    assert rep["merged_pairs"] > 0
    assert rep["vacuum"]["vacuumed"]
    assert rep["vacuum"]["tombstones_cleared"] >= 1
    assert rep["vacuum"]["rows_dropped"] == 50 + 40

    stats = read_stats(idx)
    assert stats["n_docs"] == 250 - 40
    # the vacuum's marker applied every tombstone: none is in force
    from archivesspace_virgo_ray.index.segments import load_tombstone_thresholds

    assert not len(load_tombstone_thresholds(idx)[0])
    # forward table is exactly the live corpus now
    import ray.data
    assert ray.data.read_parquet(os.path.join(idx, "_docs")).count() == 210
    audit = fsck_index(idx)
    assert audit["ok"], audit["issues"]

    # ranking == fresh rebuild over the live corpus
    indexed = full.slice(0, 250)  # base + d1 (d2 was never added here)
    live_tbl = indexed.filter(
        pa.compute.invert(
            pa.compute.is_in(pa.array(_ids(indexed)), value_set=pa.array(victims))
        )
    )
    oracle = OracleIndex(_ids(live_tbl).tolist(), live_tbl["content"].to_pylist())
    searcher = LocalSearcher(idx)
    for q in ("the", "def return", "license import"):
        got = searcher.search(q, 10)
        expect = oracle.score_query(q, 10)
        assert [x for x, _ in got] == [x for x, _ in expect], q
        assert [s for _, s in got] == [s for _, s in expect], q

    # the garbage metric reset: a second maintain is a complete no-op
    rep2 = maintain(idx, merge_factor=2, dead_ratio=0.10)
    assert rep2["garbage_fraction"] == 0.0 and rep2["merged_pairs"] == 0
    assert not rep2["tiered"]["rounds"]

    # a deleted doc can be re-added and becomes visible again
    one = full.filter(pa.compute.is_in(pa.array(_ids(full)),
                                       value_set=pa.array(victims[:1])))
    readd = str(tmp_path / "readd.parquet")
    pq.write_table(one, readd)
    add_documents(readd, idx, BuildConfig(**CFG))
    assert read_stats(idx)["n_docs"] == 211


def test_vacuum_requires_merged_index(built):
    idx, src, _full = built
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))
    with pytest.raises(ValueError, match="delta generations"):
        vacuum_docs(idx)


def test_vacuum_noop_without_garbage(built):
    idx, _src, _full = built
    rep = vacuum_docs(idx)
    assert rep == {"vacuumed": False, "rows_dropped": 0,
                   "tombstones_cleared": 0}


def test_fsck_heals_crashed_vacuum_window(built):
    from archivesspace_virgo_ray.index.segments import newest_gen

    idx, _src, _full = built
    docs = os.path.join(idx, "_docs")
    # simulate a crash between the two renames: _docs gone, the backup
    # named for the uncommitted generation + .vtmp left
    old = f"{docs}.old-g{newest_gen(idx) + 1:04d}"
    shutil.copytree(docs, docs + ".vtmp")
    os.replace(docs, old)
    audit = fsck_index(idx)
    assert not audit["ok"]
    assert "vacuum_leftover" in audit["issue_codes"]
    after = repair_index(idx)
    assert after["ok"], after["issues"]
    assert os.path.isdir(docs)
    assert not os.path.isdir(old) and not os.path.isdir(docs + ".vtmp")


def test_vacuum_killed_before_its_marker_rolls_back_for_the_next_writer(
        built, monkeypatch):
    """A vacuum that swapped the forward table but died before its marker
    committed nothing: the next writer (here an add, which takes the
    generation the vacuum meant to) rolls the swap back first, so the
    dropped rows still count as the stats say, fsck is clean, repair
    changes nothing and answers equal the oracle's."""
    from archivesspace_virgo_ray.index import update
    from archivesspace_virgo_ray.index.update import merge_segments

    idx, src, full = built
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))
    base_ids = _ids(pq.read_table(os.path.join(src, "base.parquet")))
    victims = sorted(set(base_ids.tolist()))[:40]
    delete_documents(idx, victims)
    merge_segments(idx, concurrency=2)

    def killed(*a, **k):
        raise KeyboardInterrupt("killed before the marker")

    monkeypatch.setattr(update, "_commit_gen", killed)
    with pytest.raises(KeyboardInterrupt):
        vacuum_docs(idx)
    monkeypatch.undo()
    assert any(n.startswith("_docs.old-g") for n in os.listdir(idx))

    add_documents(os.path.join(src, "d2.parquet"), idx, BuildConfig(**CFG))
    assert not any(n.startswith("_docs.old") for n in os.listdir(idx))
    audit = fsck_index(idx)
    assert audit["ok"], audit["issues"]
    assert repair_index(idx)["actions"] == []
    assert read_stats(idx)["n_docs"] == 300 - 40

    live = full.filter(pa.compute.invert(pa.compute.is_in(
        pa.array(_ids(full)), value_set=pa.array(victims))))
    oracle = OracleIndex(_ids(live).tolist(), live["content"].to_pylist())
    searcher = LocalSearcher(idx)
    for q in ("the", "def return", "license import"):
        assert searcher.search(q, 10) == oracle.score_query(q, 10), q
