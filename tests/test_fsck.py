"""fsck: a clean index audits ok; each corruption class is detected."""

import json
import os
import shutil

import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.fsck import fsck_index

CORPUS = "/root/testdata/sf0.001/documents.parquet"


def _newest_marker(idx):
    """Path of the newest commit marker (a test corrupts it in place)."""
    from archivesspace_virgo_ray.index.segments import marker_path, newest_gen

    return marker_path(idx, newest_gen(idx))


def _build(tmp_path, positions=False):
    idx = str(tmp_path / "idx")
    build_index(CORPUS, idx, BuildConfig(
        n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
        meta_cols=("lang",), store_positions=positions))
    return idx


def test_clean_index_ok(ray_session, tmp_path):
    idx = _build(tmp_path)
    r = fsck_index(idx)
    assert r["ok"], r["issues"]
    assert r["n_segments"] > 0 and r["n_docs"] == 500


def test_detects_truncated_postings(ray_session, tmp_path):
    idx = _build(tmp_path)
    seg = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    p = os.path.join(idx, "segments", seg, "postings.bin")
    with open(p, "r+b") as f:
        f.truncate(max(0, os.path.getsize(p) - 5))
    r = fsck_index(idx)
    assert not r["ok"]
    assert any("payload_bytes" in i for i in r["issues"])


def test_detects_missing_manifest_and_stray_tmp(ray_session, tmp_path):
    idx = _build(tmp_path)
    segs = sorted(os.listdir(os.path.join(idx, "segments")))
    os.remove(os.path.join(idx, "segments", segs[0], "manifest.json"))
    os.makedirs(os.path.join(idx, "segments", ".tmp-s0000_b0000-dead"))
    r = fsck_index(idx)
    assert not r["ok"]
    assert any("manifest missing" in i for i in r["issues"])
    assert any("stray tmp" in i for i in r["issues"])


def test_leftover_staging_is_reported_repaired_and_not_snapshotted(
        ray_session, tmp_path):
    """A crash inside the triples exchange (build, large add, reshard)
    leaves ``<index>/_staging`` behind: fsck reports it as a stray tmp dir,
    repair removes it behind the scratch age gate, and snapshots skip it."""
    from archivesspace_virgo_ray.index import fsck as F
    from archivesspace_virgo_ray.index.snapshot import snapshot_index

    idx = _build(tmp_path)
    staging = os.path.join(idx, "_staging")
    os.makedirs(os.path.join(staging, "gkey=0"))
    with open(os.path.join(staging, "gkey=0", "part.parquet"), "wb") as f:
        f.write(b"partial")
    r = F.fsck_index(idx)
    assert not r["ok"]
    assert F.STRAY_TMP in r["issue_codes"]
    assert any("_staging" in i for i in r["issues"])

    snap = str(tmp_path / "snap")
    snapshot_index(idx, snap)
    assert not os.path.exists(os.path.join(snap, "_staging"))

    r = F.repair_index(idx)  # fresh mtime: possibly a live exchange
    assert os.path.isdir(staging)
    assert any("skipped scratch dir _staging" in a for a in r["actions"])
    os.utime(staging, (0, 0))
    r = F.repair_index(idx)
    assert not os.path.exists(staging)
    assert any("removed stray tmp dir _staging" in a for a in r["actions"])
    assert r["ok"], r["issues"]


def test_detects_stats_drift_and_missing_positions(ray_session, tmp_path):
    idx = _build(tmp_path, positions=True)
    # corrupt global stats counter
    sp = _newest_marker(idx)
    s = json.load(open(sp))
    s["stats"]["n_postings"] += 7
    json.dump(s, open(sp, "w"))
    # drop one positions stream
    seg = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    os.remove(os.path.join(idx, "segments", seg, "positions.bin"))
    r = fsck_index(idx)
    assert not r["ok"]
    assert any("n_postings" in i for i in r["issues"])
    assert any("positions.bin" in i for i in r["issues"])


def test_detects_missing_docs_table(ray_session, tmp_path):
    idx = _build(tmp_path)
    shutil.rmtree(os.path.join(idx, "_docs"))
    r = fsck_index(idx)
    assert not r["ok"]
    assert any("_docs table missing" in i for i in r["issues"])


def test_repair_heals_safe_findings(ray_session, tmp_path):
    from archivesspace_virgo_ray.index.fsck import repair_index

    idx = _build(tmp_path)
    # plant every safe-to-heal class: stray tmp, drifted stats, stale seal
    dead = os.path.join(idx, "segments", ".tmp-s0000_b0000-dead")
    os.makedirs(dead)
    os.utime(dead, (0, 0))  # backdate: a LIVE-looking scratch is skipped
    sp = _newest_marker(idx)
    s = json.load(open(sp))
    s["stats"]["n_postings"] += 3
    s["stats"]["total_len"] += 3
    json.dump(s, open(sp, "w"))
    r = repair_index(idx)
    assert r["ok"], r["issues"]
    assert any("stray tmp" in a for a in r["actions"])
    assert any("recomputed" in a for a in r["actions"])
    # structural damage is NOT healed, only reported
    seg = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    os.remove(os.path.join(idx, "segments", seg, "postings.bin"))
    r2 = repair_index(idx)
    assert not r2["ok"]
    assert any("missing postings.bin" in i for i in r2["issues"])


def test_repair_skips_live_scratch_dirs(ray_session, tmp_path):
    """A freshly-touched .gen-* scratch dir (a possibly-LIVE delta writer)
    must survive --repair; passing scratch_min_age_sec=0 forces removal."""
    from archivesspace_virgo_ray.index.fsck import fsck_index, repair_index

    idx = _build(tmp_path)
    live = os.path.join(idx, "segments", ".gen-deadbeef")
    os.makedirs(live)  # mtime = now → under the default age threshold
    r = repair_index(idx)
    assert os.path.isdir(live), "live scratch dir was deleted"
    assert any("skipped scratch" in a for a in r["actions"])
    assert "stray_tmp" in r["issue_codes"]  # still reported, not healed
    r2 = repair_index(idx, scratch_min_age_sec=0)
    assert not os.path.isdir(live)
    assert r2["ok"], r2["issues"]


def test_issue_codes_parallel_and_targeted_repairs(ray_session, tmp_path):
    """issue_codes is parallel to issues, and repairs key on codes: a
    findings set with ONLY structural damage triggers NO reseal/restats."""
    from archivesspace_virgo_ray.index import fsck as F

    idx = _build(tmp_path)
    seg = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    os.remove(os.path.join(idx, "segments", seg, "postings.bin"))
    r = F.fsck_index(idx)
    assert len(r["issue_codes"]) == len(r["issues"])
    assert F.SEG_FILE_MISSING in r["issue_codes"]
    r2 = F.repair_index(idx)
    assert "resealed termstats" not in r2["actions"]
    assert "recomputed global stats from disk truth" not in r2["actions"]
    assert F.SEG_FILE_MISSING in r2["issue_codes"]  # reported unchanged


def test_detects_truncated_and_missing_doc_table(ray_session, tmp_path):
    from archivesspace_virgo_ray.index import fsck as F

    idx = _build(tmp_path)
    segs = sorted(os.listdir(os.path.join(idx, "segments")))
    p = os.path.join(idx, "segments", segs[0], "docs.bin")
    with open(p, "r+b") as f:
        f.truncate(max(0, os.path.getsize(p) - 5))
    os.remove(os.path.join(idx, "segments", segs[1], "docs.bin"))
    r = F.fsck_index(idx)
    assert not r["ok"]
    assert F.SEG_DOC_TABLE_SIZE in r["issue_codes"]
    assert F.SEG_DOC_TABLE_MISSING in r["issue_codes"]
    assert any(f"{segs[0]}: docs.bin" in i and "docs_bytes" in i for i in r["issues"])
    assert any(f"{segs[1]}: missing docs.bin" in i for i in r["issues"])


def test_readers_reject_stale_segment_version(ray_session, tmp_path):
    """A segment written under another PIPELINE_VERSION may use another
    posting layout: readers must refuse it, naming both versions, instead
    of decoding it with the current one."""
    import pyarrow as pa
    import pytest

    from archivesspace_virgo_ray import PIPELINE_VERSION
    from archivesspace_virgo_ray.index.query import LocalSearcher, bm25_topk

    idx = _build(tmp_path)
    seg = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    mp = os.path.join(idx, "segments", seg, "manifest.json")
    m = json.load(open(mp))
    m["pipeline_version"] = "avr-index-0"
    json.dump(m, open(mp, "w"))
    with pytest.raises(ValueError) as ei:
        LocalSearcher(idx)
    for needle in (seg, "'avr-index-0'", repr(PIPELINE_VERSION)):
        assert needle in str(ei.value)
    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array(["the data"], pa.string()),
                  "k": pa.array([5], pa.int32())})
    with pytest.raises(Exception) as ei:
        bm25_topk(idx, q)
    for needle in (seg, "'avr-index-0'", repr(PIPELINE_VERSION)):
        assert needle in str(ei.value)


@pytest.mark.parametrize("code", ["seg_block_rows", "seg_layout_size",
                                  "seg_ord_bits", "seg_last_ord"])
def test_detects_corrupt_block_table(ray_session, tmp_path, code):
    """Offsets are derived from the term and block tables, not stored: each
    kind of damage to the block table is its own finding, and a reader
    refuses the segment rather than misread it."""
    import pyarrow.parquet as pq

    from archivesspace_virgo_ray.index.postings import BLOCK_COLUMNS, MAX_BITS
    from archivesspace_virgo_ray.index.segments import SegmentReader, numpy_table

    idx = _build(tmp_path)
    seg = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    r = SegmentReader(idx, name=seg)
    cols = {k: r.blocks[k].copy() for k in BLOCK_COLUMNS}
    if code == "seg_block_rows":
        cols = {k: v[:-1] for k, v in cols.items()}
    elif code == "seg_layout_size":  # 8 more bits per value: n more bytes
        cols["ord_bits"][0] += 8
    elif code == "seg_ord_bits":  # wider than a 64-bit read holds
        cols["ord_bits"][0] = MAX_BITS + 1
    else:
        cols["last_ord"][-1] = r.manifest["n_docs"]
    pq.write_table(numpy_table(cols),
                   os.path.join(idx, "segments", seg, "blocks.parquet"))
    res = fsck_index(idx)
    assert res["issue_codes"] == [code], res["issues"]
    with pytest.raises(ValueError):
        SegmentReader(idx, name=seg)


@pytest.mark.parametrize("code", ["marker_unreadable", "marker_stats",
                                  "termstats_missing", "termstats_leftover"])
def test_detects_commit_record_damage(ray_session, tmp_path, code):
    """Each kind of damage to the commit record is its own finding: an
    unreadable newest marker, stats that disagree with the live segments
    and the forward table, a term-stats version the marker names but is
    gone, and one no kept marker names (a crash between a seal and its
    marker). Repair commits a new marker for the stats and the missing
    version and reaps the leftover; an unreadable marker stays reported."""
    from archivesspace_virgo_ray.index import fsck as F
    from archivesspace_virgo_ray.index.query import LocalSearcher
    from archivesspace_virgo_ray.index.segments import termstats_dir

    idx = _build(tmp_path)
    want = LocalSearcher(idx).search("the data model", 5)
    ts = termstats_dir(idx)
    if code == "marker_unreadable":
        with open(_newest_marker(idx), "w") as f:
            f.write("{not json")
    elif code == "marker_stats":
        sp = _newest_marker(idx)
        s = json.load(open(sp))
        s["stats"]["n_docs"] += 1
        json.dump(s, open(sp, "w"))
    elif code == "termstats_missing":
        shutil.rmtree(ts)
    else:
        shutil.copytree(ts, os.path.join(idx, "_global", "termstats-deadbeef"))
    res = fsck_index(idx)
    assert res["issue_codes"] == [code], res["issues"]
    fixed = F.repair_index(idx)
    if code == "marker_unreadable":
        assert fixed["issue_codes"] == [code]
        return
    assert fixed["ok"], fixed["issues"]
    assert LocalSearcher(idx).search("the data model", 5) == want
