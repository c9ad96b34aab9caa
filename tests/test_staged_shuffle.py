"""Staged (disk-partitioned) shuffle: byte-identity with the groupby path,
resume behavior, staging cleanup."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.index.build import BuildConfig, build_index


def _docs(tmp_path, n=250):
    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(300)]
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(
            [" ".join(rng.choice(vocab, rng.integers(25, 70))) for _ in range(n)],
            pa.string(),
        ),
    })
    p = str(tmp_path / "docs.parquet")
    pq.write_table(tbl, p)
    return p


def _segment_bytes(idx):
    out = {}
    for name in sorted(os.listdir(os.path.join(idx, "segments"))):
        d = os.path.join(idx, "segments", name)
        for f in ("terms.parquet", "blocks.parquet", "docs.bin", "postings.bin", "positions.bin"):
            p = os.path.join(d, f)
            if os.path.exists(p):
                with open(p, "rb") as fh:
                    out[f"{name}/{f}"] = fh.read()
    return out


def _cfg(**kw):
    base = dict(n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
                meta_cols=())
    base.update(kw)
    return BuildConfig(**base)


def test_staged_matches_groupby_byte_for_byte(ray_session, tmp_path):
    docs_path = _docs(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    sa = build_index(docs_path, a, _cfg(shuffle="groupby"), resume=False)
    sb = build_index(docs_path, b, _cfg(shuffle="staged"), resume=False)
    assert sa["n_postings"] == sb["n_postings"]
    ba, bb = _segment_bytes(a), _segment_bytes(b)
    assert ba.keys() == bb.keys()
    for k in ba:
        assert ba[k] == bb[k], k
    # staging directory is cleaned up after a successful build
    assert not os.path.exists(os.path.join(b, "_staging"))


def test_staged_positional_matches_groupby(ray_session, tmp_path):
    docs_path = _docs(tmp_path, n=120)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(docs_path, a, _cfg(shuffle="groupby", store_positions=True),
                resume=False)
    build_index(docs_path, b, _cfg(shuffle="staged", store_positions=True),
                resume=False)
    ba, bb = _segment_bytes(a), _segment_bytes(b)
    assert any(k.endswith("positions.bin") for k in ba)
    assert ba.keys() == bb.keys()
    for k in ba:
        assert ba[k] == bb[k], k


def test_staged_resume_skips_complete_segments(ray_session, tmp_path):
    docs_path = _docs(tmp_path, n=150)
    idx = str(tmp_path / "idx")
    build_index(docs_path, idx, _cfg(shuffle="staged"), resume=False)
    before = _segment_bytes(idx)
    # delete ONE segment + the stats stamp: resume must rebuild only it
    victim = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    shutil.rmtree(os.path.join(idx, "segments", victim))
    os.remove(os.path.join(idx, "_global", "stats.json"))
    stats = build_index(docs_path, idx, _cfg(shuffle="staged"), resume=True)
    assert stats["n_segments_written"] == 1
    after = _segment_bytes(idx)
    assert after == before  # deterministic rebuild of the missing segment
