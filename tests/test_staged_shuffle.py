"""The one triples → segment exchange (build.write_segments): a driver-side
table split in memory and a Dataset staged to disk give byte-identical
segments; resume rebuilds only missing segments; staging is cleaned up."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from archivesspace_virgo_ray.index.build import (
    BuildConfig,
    build_index,
    make_triples_fn,
    write_segments,
)


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


def _table_vs_dataset(tmp_path, n, **kw):
    """Write the same triples once as a driver-side table and once as a
    staged Dataset; returns the two index dirs."""
    cfg = _cfg(**kw)
    docs = pq.read_table(_docs(tmp_path, n=n))
    triples = make_triples_fn(cfg, frozenset())(docs)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    ra = write_segments(triples, a, cfg)
    ds = ray.data.from_arrow(docs).map_batches(
        make_triples_fn(cfg, frozenset()), batch_format="pyarrow", batch_size=37)
    rb = write_segments(ds, b, cfg)
    assert sorted(zip(ra["shard"], ra["bucket"], ra["n_postings"])) == sorted(
        zip(rb["shard"], rb["bucket"], rb["n_postings"]))
    assert int(ra["n_postings"].sum()) == len(triples)
    assert not ra["skipped"].any() and not rb["skipped"].any()
    # staging directory is cleaned up after the exchange
    assert not os.path.exists(os.path.join(b, "_staging"))
    return a, b


def test_table_and_dataset_exchange_byte_identical(ray_session, tmp_path):
    a, b = _table_vs_dataset(tmp_path, 250)
    ba, bb = _segment_bytes(a), _segment_bytes(b)
    assert len(ba) == 8 * 4
    assert ba.keys() == bb.keys()
    for k in ba:
        assert ba[k] == bb[k], k


def test_table_and_dataset_exchange_positional(ray_session, tmp_path):
    a, b = _table_vs_dataset(tmp_path, 120, store_positions=True)
    ba, bb = _segment_bytes(a), _segment_bytes(b)
    assert any(k.endswith("positions.bin") for k in ba)
    assert ba.keys() == bb.keys()
    for k in ba:
        assert ba[k] == bb[k], k


def test_staged_resume_skips_complete_segments(ray_session, tmp_path):
    docs_path = _docs(tmp_path, n=150)
    idx = str(tmp_path / "idx")
    build_index(docs_path, idx, _cfg(), resume=False)
    assert not os.path.exists(os.path.join(idx, "_staging"))
    before = _segment_bytes(idx)
    # delete ONE segment + the stats stamp: resume must rebuild only it
    victim = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    shutil.rmtree(os.path.join(idx, "segments", victim))
    os.remove(os.path.join(idx, "_global", "stats.json"))
    stats = build_index(docs_path, idx, _cfg(), resume=True)
    assert stats["n_segments_written"] == 1
    after = _segment_bytes(idx)
    assert after == before  # deterministic rebuild of the missing segment
    assert not os.path.exists(os.path.join(idx, "_staging"))
