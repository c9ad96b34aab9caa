"""Incremental termstats seal (build._seal_termstats_incremental).

Contract: after add_documents, merging the delta generation's term stats
into the version the predecessor's marker names produces EXACTLY the table
a full reseal over all live segments would — df/cf are sums, max_tf/min_dl
are max/min, so combine(prev_agg, delta) == full aggregation per (bucket,
term). The fallback (missing / oversized predecessor version) must take
the full path.
"""

import glob
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.corpus import generate_corpus
from archivesspace_virgo_ray.index import build as build_mod
from archivesspace_virgo_ray.index.build import (
    BuildConfig,
    build_index,
    termstats_dir,
)
from archivesspace_virgo_ray.index.segments import _committed_markers
from archivesspace_virgo_ray.index.update import add_documents, update_fields

CFG = dict(n_shards=2, n_buckets=4, batch_size=128)


def _seal_tables(idx: str, cur: str | None = None) -> dict[int, pd.DataFrame]:
    cur = cur or termstats_dir(idx)
    out = {}
    for bdir in sorted(glob.glob(os.path.join(cur, "bucket=*"))):
        b = int(os.path.basename(bdir).split("=")[1])
        out[b] = (pq.read_table(bdir).to_pandas()
                  .sort_values("term", ignore_index=True))
    return out


def _full_reseal(idx: str) -> str:
    """A full vocab-sized reseal over the newest marker's live segments."""
    return os.path.join(idx, "_global", build_mod._seal_termstats(
        idx, _committed_markers(idx)))


@pytest.fixture()
def built(tmp_path, ray_session):
    full = generate_corpus(240, seed=31)
    src = tmp_path / "corp"
    src.mkdir()
    pq.write_table(full.slice(0, 180), str(src / "base.parquet"))
    pq.write_table(full.slice(180, 30), str(src / "d1.parquet"))
    pq.write_table(full.slice(210, 30), str(src / "d2.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src / "base.parquet"), idx, BuildConfig(**CFG),
                resume=False)
    return idx, str(src)


def test_add_uses_incremental_and_matches_full_reseal(built, monkeypatch):
    idx, src = built

    full_calls = []
    orig = build_mod._seal_termstats
    monkeypatch.setattr(build_mod, "_seal_termstats",
                        lambda *a: full_calls.append(a) or orig(*a))
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))
    add_documents(os.path.join(src, "d2.parquet"), idx, BuildConfig(**CFG))
    assert not full_calls, "adds should take the delta-sized seal path"

    inc = _seal_tables(idx)
    fullt = _seal_tables(idx, _full_reseal(idx))
    assert set(inc) == set(fullt)
    for b in inc:
        pd.testing.assert_frame_equal(inc[b], fullt[b])


def test_stale_seal_falls_back_to_full(built):
    """The predecessor's version is missing (fsck ``termstats_missing``):
    the incremental seal cannot merge into it, and the add takes the full
    reseal instead."""
    import shutil

    from archivesspace_virgo_ray.index.build import _seal_termstats_incremental

    idx, src = built
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))
    shutil.rmtree(termstats_dir(idx))
    markers = _committed_markers(idx)
    assert _seal_termstats_incremental(idx, max(markers) + 1,
                                       {**markers, max(markers) + 1: {}}) is None
    add_documents(os.path.join(src, "d2.parquet"), idx, BuildConfig(**CFG))
    got, want = _seal_tables(idx), _seal_tables(idx, _full_reseal(idx))
    assert set(got) == set(want)
    for b in got:
        pd.testing.assert_frame_equal(got[b], want[b])


def test_metadata_only_gen_restamps_in_place(built):
    """update_fields commits a term-free generation: its marker names the
    predecessor's term-stats version, no new one."""
    idx, src = built
    add_documents(os.path.join(src, "d1.parquet"), idx, BuildConfig(**CFG))
    before = _seal_tables(idx)
    before_dir = termstats_dir(idx)
    n_markers = len(_committed_markers(idx))
    frag = next(
        os.path.join(r, f) for r, _d, fs in os.walk(os.path.join(idx, "_docs"))
        for f in sorted(fs) if f.endswith(".parquet"))
    one = int(pq.read_table(frag, columns=["doc_id"])["doc_id"][0].as_py())
    update_fields(idx, pd.DataFrame({"doc_id": [one], "lang": ["zz"]}))
    assert len(_committed_markers(idx)) == n_markers + 1
    assert termstats_dir(idx) == before_dir
    after = _seal_tables(idx)
    for b in before:
        pd.testing.assert_frame_equal(before[b], after[b])
