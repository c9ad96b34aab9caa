"""Continuous ingestion loop (index/ingest.py — the reference's
mtime-window incremental reindex, IndexRecords.java:124-132 analog).

Contract: first run bootstraps the index over the whole drop directory;
each later round ingests exactly the files whose (path, mtime, size) key
is not in the persisted seen-set as ONE replace-by-id generation; a
watermark-only state file counts older files as seen; re-running after a
crash (state file lost) is idempotent; a changed file's docs are
replaced, not duplicated.
"""

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.index.build import BuildConfig
from archivesspace_virgo_ray.index.ingest import ingest_once
from archivesspace_virgo_ray.index.query import LocalSearcher
from archivesspace_virgo_ray.index.segments import read_stats

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)


def _bump_mtime(path: str) -> None:
    """Advance mtime past the watermark even on coarse-clock filesystems."""
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 2_000_000))


@pytest.fixture()
def drop(tmp_path):
    full = generate_corpus(240, seed=53)
    d = tmp_path / "drop"
    d.mkdir()
    pq.write_table(full.slice(0, 200), str(d / "batch0.parquet"))
    return str(d), str(tmp_path / "idx"), full


def test_bootstrap_then_incremental_rounds(drop, ray_session):
    d, idx, full = drop
    r0 = ingest_once(d, idx, BuildConfig(**CFG))
    assert r0["bootstrapped"] and r0["added"] == 200
    # idempotent: nothing new
    r1 = ingest_once(d, idx, BuildConfig(**CFG))
    assert r1 == {"bootstrapped": False, "n_files": 0, "added": 0,
                  "replaced": 0, "watermark_ns": r0["watermark_ns"]}

    # drop two new files -> one generation, both ingested
    pq.write_table(full.slice(200, 20), os.path.join(d, "batch1.parquet"))
    pq.write_table(full.slice(220, 20), os.path.join(d, "batch2.parquet"))
    for f in ("batch1.parquet", "batch2.parquet"):
        _bump_mtime(os.path.join(d, f))
    r2 = ingest_once(d, idx, BuildConfig(**CFG))
    assert r2["n_files"] == 2 and r2["added"] == 40 and r2["replaced"] == 0
    assert read_stats(idx)["n_docs"] == 240
    assert ingest_once(d, idx, BuildConfig(**CFG))["n_files"] == 0


def test_changed_file_replaces_in_place(drop, ray_session):
    d, idx, full = drop
    ingest_once(d, idx, BuildConfig(**CFG))

    # rewrite batch0 with the SAME keys but changed text for one doc
    t = pq.read_table(os.path.join(d, "batch0.parquet"))
    texts = t["content"].to_pylist()
    texts[0] = texts[0] + " zzsentinelzz"
    t = t.set_column(t.column_names.index("content"), "content",
                     pa.array(texts))
    pq.write_table(t, os.path.join(d, "batch0.parquet"))
    _bump_mtime(os.path.join(d, "batch0.parquet"))

    r = ingest_once(d, idx, BuildConfig(**CFG))
    assert r["n_files"] == 1 and r["added"] == 0 and r["replaced"] == 200
    assert read_stats(idx)["n_docs"] == 200  # replaced, never duplicated
    hits = LocalSearcher(idx).search("zzsentinelzz", 5)
    assert len(hits) == 1


def test_crash_before_state_write_is_idempotent(drop, ray_session):
    d, idx, _full = drop
    ingest_once(d, idx, BuildConfig(**CFG))
    state_path = os.path.join(idx, "_global", "ingest.json")
    wm = json.load(open(state_path))["watermark_ns"]
    # simulate the crash window: generation committed, state write lost
    os.unlink(state_path)
    r = ingest_once(d, idx, BuildConfig(**CFG))
    # everything re-ingests as replaces — same doc count, watermark restored
    assert r["replaced"] == 200 and r["added"] == 0
    assert read_stats(idx)["n_docs"] == 200
    assert json.load(open(state_path))["watermark_ns"] >= wm


def test_maintain_after_ingest(drop, ray_session):
    d, idx, full = drop
    ingest_once(d, idx, BuildConfig(**CFG))
    pq.write_table(full.slice(200, 40), os.path.join(d, "b1.parquet"))
    _bump_mtime(os.path.join(d, "b1.parquet"))
    r = ingest_once(d, idx, BuildConfig(**CFG), maintain_after=True)
    assert r["added"] == 40 and "maintain" in r


def test_preserved_mtime_below_watermark_is_ingested(drop, ray_session):
    """A file copied with its mtime kept (cp -p, rsync -a) can land below
    the watermark; it is still new, and unchanged files stay skipped."""
    d, idx, full = drop
    r0 = ingest_once(d, idx, BuildConfig(**CFG))
    old = os.path.join(d, "old.parquet")
    pq.write_table(full.slice(200, 40), old)
    below = r0["watermark_ns"] - 10**9
    os.utime(old, ns=(below, below))
    r1 = ingest_once(d, idx, BuildConfig(**CFG))
    assert r1["n_files"] == 1 and r1["added"] == 40 and r1["replaced"] == 0
    assert read_stats(idx)["n_docs"] == 240
    assert ingest_once(d, idx, BuildConfig(**CFG))["n_files"] == 0


def test_legacy_watermark_state_counts_older_files_as_seen(drop, ray_session):
    d, idx, full = drop
    r0 = ingest_once(d, idx, BuildConfig(**CFG))
    state_path = os.path.join(idx, "_global", "ingest.json")
    with open(state_path, "w") as f:
        json.dump({"watermark_ns": r0["watermark_ns"]}, f)
    assert ingest_once(d, idx, BuildConfig(**CFG))["n_files"] == 0
    pq.write_table(full.slice(200, 40), os.path.join(d, "b1.parquet"))
    _bump_mtime(os.path.join(d, "b1.parquet"))
    r = ingest_once(d, idx, BuildConfig(**CFG))
    assert r["n_files"] == 1 and r["added"] == 40
    assert ingest_once(d, idx, BuildConfig(**CFG))["n_files"] == 0
