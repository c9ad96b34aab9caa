"""Reshard: postings-only layout rewrite must be byte-identical to a fresh
build at the target layout, for both plain and positional indexes."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import LocalSearcher
from archivesspace_virgo_ray.index.reshard import reshard_index, segments_equal
from archivesspace_virgo_ray.index.segments import read_stats


CORPUS = "/root/testdata/sf0.001/documents.parquet"


def _cfg(s, b, positions=False):
    return BuildConfig(n_shards=s, n_buckets=b, text_col="text",
                       id_col="doc_id", meta_cols=("lang", "source"),
                       store_positions=positions)


@pytest.mark.parametrize("positions", [False, True])
def test_reshard_byte_identical_to_fresh_build(ray_session, tmp_path,
                                               positions):
    src = str(tmp_path / "idx48")
    fresh = str(tmp_path / "idx24_fresh")
    dst = str(tmp_path / "idx24_resharded")
    build_index(CORPUS, src, _cfg(4, 8, positions))
    build_index(CORPUS, fresh, _cfg(2, 4, positions))
    out = reshard_index(src, dst, n_shards=2, n_buckets=4)
    assert segments_equal(dst, fresh), \
        "resharded segments differ from a fresh build at the same layout"
    f = read_stats(fresh)
    for k in ("n_docs", "total_len", "avgdl", "n_shards", "n_buckets",
              "n_postings", "positions", "n_groups"):
        assert out[k] == f[k], k
    # query parity end-to-end on the resharded index
    qa = LocalSearcher(dst).search("the data model", 10)
    qb = LocalSearcher(fresh).search("the data model", 10)
    assert qa == qb
    # forward doc table rerouted
    docs = pq.read_table(os.path.join(dst, "_docs")).to_pandas()
    assert (docs["shard"] == docs["doc_id"] % 2).all()


def test_reshard_refuses_unmerged_and_dirty(ray_session, tmp_path):
    src = str(tmp_path / "idx")
    build_index(CORPUS, src, _cfg(2, 4))
    with pytest.raises(ValueError, match="must differ"):
        reshard_index(src, src, 2, 4)
    dirty = tmp_path / "dirty"
    dirty.mkdir()
    (dirty / "junk").write_text("x")
    with pytest.raises(ValueError, match="not empty"):
        reshard_index(src, str(dirty), 4, 8)
    # an index with a committed delta generation must be merged first
    from archivesspace_virgo_ray.index.update import add_documents

    delta = pd.DataFrame({
        "doc_id": [990001], "text": ["brand new delta doc"],
        "lang": ["en"], "source": ["s"],
        "n_chars": [19],
    })
    add_documents(ray_docs(delta), src, _cfg(2, 4))
    with pytest.raises(ValueError, match="delta generations"):
        reshard_index(src, str(tmp_path / "out"), 4, 8)


def test_reshard_after_add_and_merge_equals_fresh_build(ray_session, tmp_path):
    """A merged index reshards: the result is the fresh build of its live
    corpus at the target layout, and its commits continue the source's
    generation numbering (the forward table keeps each row's gen)."""
    from archivesspace_virgo_ray.index.update import (
        add_documents,
        committed_gens,
        merge_segments,
        realtime_get,
    )

    src, dst, fresh = (str(tmp_path / n) for n in ("src", "dst", "fresh"))
    build_index(CORPUS, src, _cfg(2, 4))
    delta = pd.DataFrame({"doc_id": [990001], "text": ["brand new delta doc"],
                          "lang": ["en"], "source": ["s"], "n_chars": [19]})
    add_documents(ray_docs(delta), src, _cfg(2, 4))
    assert len(merge_segments(src, concurrency=2))
    reshard_index(src, dst, 4, 8)

    live = pa.concat_tables([pq.read_table(CORPUS), pa.Table.from_pandas(
        delta, preserve_index=False)], promote_options="default")
    pq.write_table(live, str(tmp_path / "live.parquet"))
    build_index(str(tmp_path / "live.parquet"), fresh, _cfg(4, 8))
    assert segments_equal(dst, fresh)
    assert LocalSearcher(dst).search("brand new delta", 5) == \
        LocalSearcher(fresh).search("brand new delta", 5)

    assert max(committed_gens(dst)) == max(committed_gens(src))
    add_documents(ray_docs(delta.assign(source=["s2"])), dst, _cfg(4, 8),
                  on_conflict="replace")
    assert realtime_get(dst, [990001])["source"].tolist() == ["s2"]


def ray_docs(df: pd.DataFrame):
    import ray.data

    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


def _drop_marker(idx):
    """Undo a finished reshard's commit: its one marker."""
    (name,) = os.listdir(os.path.join(idx, "_global", "gens"))
    os.remove(os.path.join(idx, "_global", "gens", name))


def test_reshard_resume_after_partial(ray_session, tmp_path):
    """Kill-resume: wipe the marker + a segment from a finished reshard,
    resume, and the result is byte-identical to a clean reshard."""
    import shutil

    src = str(tmp_path / "src")
    clean = str(tmp_path / "clean")
    crashed = str(tmp_path / "crashed")
    build_index(CORPUS, src, _cfg(4, 8))
    reshard_index(src, clean, n_shards=2, n_buckets=4)
    reshard_index(src, crashed, n_shards=2, n_buckets=4)
    # simulate a crash: the marker + one segment missing
    _drop_marker(crashed)
    segs = sorted(os.listdir(os.path.join(crashed, "segments")))
    shutil.rmtree(os.path.join(crashed, "segments", segs[0]))
    shutil.rmtree(os.path.join(crashed, "_docs"))
    reshard_index(src, crashed, n_shards=2, n_buckets=4, resume=True)
    assert segments_equal(crashed, clean)
    assert read_stats(crashed)["n_postings"] == read_stats(clean)["n_postings"]
    qa = LocalSearcher(crashed).search("the data model", 5)
    qb = LocalSearcher(clean).search("the data model", 5)
    assert qa == qb


def test_reshard_resume_mid_docs_write_and_post_rename(ray_session, tmp_path):
    """The two _docs crash windows the first resume test missed: (a) crash
    DURING the docs write (partial files left in _docs.tmp — a resume must
    not merge new files next to them and duplicate rows), (b) crash AFTER
    the _docs rename but before the marker (resume must not os.replace
    onto the completed, non-empty _docs)."""
    import shutil

    import pyarrow.parquet as _pq

    src = str(tmp_path / "src")
    clean = str(tmp_path / "clean")
    build_index(CORPUS, src, _cfg(4, 8))
    reshard_index(src, clean, n_shards=2, n_buckets=4)
    n_docs_clean = len(_pq.read_table(os.path.join(clean, "_docs")))

    # (a) mid-docs-write: marker missing, _docs missing, stale partial tmp
    mid = str(tmp_path / "mid")
    reshard_index(src, mid, n_shards=2, n_buckets=4)
    _drop_marker(mid)
    tmp_docs = os.path.join(mid, "_docs.tmp")
    os.rename(os.path.join(mid, "_docs"), tmp_docs)  # fake a partial write
    reshard_index(src, mid, n_shards=2, n_buckets=4, resume=True)
    assert not os.path.exists(tmp_docs)
    assert len(_pq.read_table(os.path.join(mid, "_docs"))) == n_docs_clean
    assert segments_equal(mid, clean)

    # (b) post-rename: _docs complete, only the marker missing
    post = str(tmp_path / "post")
    reshard_index(src, post, n_shards=2, n_buckets=4)
    _drop_marker(post)
    reshard_index(src, post, n_shards=2, n_buckets=4, resume=True)
    assert len(_pq.read_table(os.path.join(post, "_docs"))) == n_docs_clean
    assert segments_equal(post, clean)
    assert read_stats(post)["n_postings"] == read_stats(clean)["n_postings"]
