"""The one triples → segment exchange (build.write_segments): a driver-side
table split in memory and a Dataset staged to disk give byte-identical
segments; resume rebuilds only missing segments; staging is cleaned up.
build_index over a small parquet path (the driver path) and over the same
rows as a Dataset (the staged path) give the same index."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from archivesspace_virgo_ray.index import build
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
        "lang": pa.array([["en", "de", "fr"][i % 3] for i in range(n)]),
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
    key = lambda r: (r["shard"], r["bucket"], r["n_postings"])  # noqa: E731
    assert sorted(map(key, ra)) == sorted(map(key, rb))
    assert sum(r["n_postings"] for r in ra) == len(triples)
    assert not any(r["skipped"] for r in ra + rb)
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


def _spy_exchange(monkeypatch) -> list:
    """Record the type of every ``triples`` build_index hands the exchange."""
    seen, real = [], build.write_segments

    def spy(triples, *a, **kw):
        seen.append(type(triples))
        return real(triples, *a, **kw)

    monkeypatch.setattr(build, "write_segments", spy)
    return seen


def test_staged_resume_skips_complete_segments(ray_session, tmp_path,
                                               monkeypatch):
    """Resume of a small path source rebuilds the one missing segment on
    the driver, byte-identically."""
    seen = _spy_exchange(monkeypatch)
    docs_path = _docs(tmp_path, n=150)
    idx = str(tmp_path / "idx")
    build_index(docs_path, idx, _cfg(), resume=False)
    assert not os.path.exists(os.path.join(idx, "_staging"))
    before = _segment_bytes(idx)
    # delete ONE segment + the build's marker: resume must rebuild only it
    victim = sorted(os.listdir(os.path.join(idx, "segments")))[0]
    shutil.rmtree(os.path.join(idx, "segments", victim))
    os.remove(os.path.join(idx, "_global", "gens", "g0000.json"))
    stats = build_index(docs_path, idx, _cfg(), resume=True)
    assert stats["n_segments_written"] == 1
    after = _segment_bytes(idx)
    assert after == before  # deterministic rebuild of the missing segment
    assert not os.path.exists(os.path.join(idx, "_staging"))
    assert seen == [pa.Table, pa.Table]


def _docs_rows(idx):
    return pq.read_table(os.path.join(idx, "_docs")).sort_by("doc_id")


@pytest.mark.parametrize("positions", [False, True])
def test_path_and_dataset_builds_equal(ray_session, tmp_path, monkeypatch,
                                       positions):
    """A small path builds on the driver, the same rows as a Dataset build
    through the staged exchange: same segment bytes, doc table rows and
    stats, and neither leaves staging behind."""
    seen = _spy_exchange(monkeypatch)
    docs_path = _docs(tmp_path, n=200)
    cfg = dict(meta_cols=("lang",), store_positions=positions, batch_size=64)
    a, b = str(tmp_path / "path"), str(tmp_path / "ds")
    sa = build_index(docs_path, a, _cfg(**cfg), resume=False)
    sb = build_index(ray.data.read_parquet(docs_path), b, _cfg(**cfg),
                     resume=False)
    assert seen == [pa.Table, ray.data.Dataset]
    ba, bb = _segment_bytes(a), _segment_bytes(b)
    assert ba and ba.keys() == bb.keys()
    for k in ba:
        assert ba[k] == bb[k], k
    assert positions == any(k.endswith("positions.bin") for k in ba)
    assert _docs_rows(a).equals(_docs_rows(b))
    assert os.listdir(os.path.join(a, "_docs")) == ["part-0.parquet"]
    assert sa == sb
    for idx in (a, b):
        assert not os.path.exists(os.path.join(idx, "_staging"))


def test_table_exchange_submits_no_task(ray_session, tmp_path, monkeypatch):
    class NoTasks:
        def remote(self, *_a, **_kw):
            raise AssertionError("a table exchange must not submit tasks")

    monkeypatch.setattr(build, "_write_segment_task", NoTasks())
    cfg = _cfg()
    docs = pq.read_table(_docs(tmp_path, n=60))
    rows = write_segments(make_triples_fn(cfg, frozenset())(docs),
                          str(tmp_path / "idx"), cfg)
    assert len(rows) == 8 and not any(r["skipped"] for r in rows)
