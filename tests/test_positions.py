"""Positional-postings stream: codec round-trip, segment determinism,
merge/incremental-add carry-through, resume flag isolation."""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.postings import (
    BLOCK_SIZE,
    decode_positions,
    encode_position_deltas,
    position_bytes_array,
)


def _rand_postings(rng, n, max_tf=9, max_pos=50_000):
    tfs = rng.integers(1, max_tf + 1, n).astype(np.int64)
    flat = np.concatenate(
        [np.sort(rng.choice(max_pos, tf, replace=False)) for tf in tfs]
    ).astype(np.int64)
    return tfs, flat


def test_position_codec_roundtrip_full_and_masked():
    rng = np.random.default_rng(11)
    tfs, flat = _rand_postings(rng, 700)
    payload, per_post = encode_position_deltas(tfs, flat)
    bounds = np.arange(0, len(tfs), BLOCK_SIZE)
    pos_bytes = np.add.reduceat(per_post, bounds)
    assert np.array_equal(decode_positions(payload, pos_bytes, tfs), flat)
    # every single-block mask decodes independently
    csum = np.concatenate([[0], np.cumsum(tfs)])
    for bi in range(len(bounds)):
        mask = np.zeros(len(bounds), dtype=bool)
        mask[bi] = True
        s, e = bounds[bi], min(bounds[bi] + BLOCK_SIZE, len(tfs))
        got = decode_positions(payload, pos_bytes, tfs[s:e], mask)
        assert np.array_equal(got, flat[csum[s]:csum[e]])


def test_position_bytes_array_matches_stream():
    rng = np.random.default_rng(12)
    tfs, flat = _rand_postings(rng, 150)
    payload, per_post = encode_position_deltas(tfs, flat)
    ba = position_bytes_array(tfs, flat)
    assert b"".join(ba.to_pylist()) == payload
    assert [len(b) for b in ba.to_pylist()] == per_post.tolist()


DOCS = pa.table({
    "doc_id": pa.array(list(range(1, 41)), pa.int64()),
    "text": pa.array(
        [f"alpha beta gamma doc {i} alpha beta shared tokens run {i % 5}"
         for i in range(1, 41)],
        pa.string(),
    ),
})


def _cfg(store_positions=True):
    return BuildConfig(
        n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
        meta_cols=(), store_positions=store_positions,
    )


def _segment_bytes(idx):
    out = {}
    seg_root = os.path.join(idx, "segments")
    for name in sorted(os.listdir(seg_root)):
        d = os.path.join(seg_root, name)
        for f in ("terms.parquet", "blocks.parquet", "docs.bin", "postings.bin", "positions.bin"):
            p = os.path.join(d, f)
            if os.path.exists(p):
                with open(p, "rb") as fh:
                    out[f"{name}/{f}"] = fh.read()
    return out


def test_positional_segments_deterministic(ray_session, tmp_path):
    docs_path = str(tmp_path / "docs.parquet")
    pq.write_table(DOCS, docs_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(docs_path, a, _cfg(), resume=False)
    build_index(docs_path, b, _cfg(), resume=False)
    ba, bb = _segment_bytes(a), _segment_bytes(b)
    assert ba.keys() == bb.keys()
    assert any(k.endswith("positions.bin") for k in ba)
    for k in ba:
        assert ba[k] == bb[k], k


def test_resume_flag_mismatch_rebuilds(ray_session, tmp_path):
    docs_path = str(tmp_path / "docs.parquet")
    pq.write_table(DOCS, docs_path)
    idx = str(tmp_path / "idx")
    build_index(docs_path, idx, _cfg(store_positions=False), resume=False)
    assert not any(
        k.endswith("positions.bin") for k in _segment_bytes(idx)
    )
    # resume with positions on: non-positional segments must NOT be skipped
    stats = build_index(docs_path, idx, _cfg(store_positions=True), resume=True)
    assert stats["positions"] is True
    assert any(k.endswith("positions.bin") for k in _segment_bytes(idx))
    # and phrase queries now use the positional path
    from archivesspace_virgo_ray.index.query import get_pool

    assert get_pool(idx).has_positions


def test_incremental_add_and_merge_preserve_positions(ray_session, tmp_path):
    from archivesspace_virgo_ray.index.phrase import phrase_topk
    from archivesspace_virgo_ray.index.query import get_pool
    from archivesspace_virgo_ray.index.update import add_documents, merge_segments

    docs_path = str(tmp_path / "docs.parquet")
    pq.write_table(DOCS, docs_path)
    idx = str(tmp_path / "idx")
    build_index(docs_path, idx, _cfg(), resume=False)

    delta = pa.table({
        "doc_id": pa.array([101, 102], pa.int64()),
        "text": pa.array(
            ["alpha beta gamma fresh delta doc", "gamma alpha beta reversed order"],
            pa.string(),
        ),
    })
    dpath = str(tmp_path / "delta.parquet")
    pq.write_table(delta, dpath)
    add_documents(dpath, idx, _cfg())

    q = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array(["alpha beta gamma"], pa.string()),
        "k": pa.array([50], pa.int32()),
    })
    all_docs = str(tmp_path / "all.parquet")
    pq.write_table(pa.concat_tables([DOCS, delta]), all_docs)

    before = phrase_topk(idx, all_docs, q).to_pandas()
    # delta doc 101 contains the phrase; 102 has the tokens out of order
    assert 101 in set(before.doc_id) and 102 not in set(before.doc_id)
    assert set(before.doc_id) >= set(range(1, 41)) | {101}

    merge_segments(idx)
    import archivesspace_virgo_ray.index.query as qmod

    qmod._POOL_CACHE.clear() if hasattr(qmod, "_POOL_CACHE") else None
    after = phrase_topk(idx, all_docs, q).to_pandas()
    got = after.sort_values("doc_id", ignore_index=True)
    want = before.sort_values("doc_id", ignore_index=True)
    assert list(got.doc_id) == list(want.doc_id)
    np.testing.assert_allclose(got.score, want.score, rtol=0, atol=0)
    # merged base segments still carry the positions stream
    assert any(k.endswith("positions.bin") for k in _segment_bytes(idx))
    assert get_pool(idx).has_positions
