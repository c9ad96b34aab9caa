"""The driver build's thread pool (``build.pool_map``): a build, a replace
add and a reshard give the same segment bytes and ``_docs`` rows on the
pool as inline, a null text in any slice still fails the build before
anything is published, and a build leaves no thread behind."""

import os
import re
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index import build
from archivesspace_virgo_ray.index.reshard import reshard_index
from archivesspace_virgo_ray.index.update import add_documents


def _cfg(**kw):
    return build.BuildConfig(**{**dict(
        n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
        meta_cols=("lang",), batch_size=32), **kw})


def _write(tmp_path, name, ids, seed):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)] + ["MiXeD", "UP_case"]
    # every 50th doc is non-ASCII, so some 32-row slices take the
    # tokenizer's ASCII path and some its Unicode one
    tbl = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [" ".join(rng.choice(vocab, rng.integers(5, 60)))
                 + (" İstanbul Ünïcode" if i % 50 == 0 else "") for i in ids],
        "lang": [["en", "de"][i % 2] for i in ids],
    })
    path = str(tmp_path / name)
    pq.write_table(tbl, path)
    return path


def _segment_files(idx):
    """Every segment file but the manifests (they carry lineage paths),
    keyed by path under ``idx``."""
    out = {}
    for d, _, names in os.walk(os.path.join(idx, "segments")):
        for f in names:
            if f != "manifest.json":
                p = os.path.join(d, f)
                with open(p, "rb") as fh:
                    out[os.path.relpath(p, idx)] = fh.read()
    return out


def _docs_rows(idx):
    """Every ``_docs`` row, base and delta files alike, in (doc_id, gen)
    order."""
    files = sorted(os.path.join(d, f) for d, _, names in os.walk(os.path.join(idx, "_docs"))
                   for f in names)
    return pa.concat_tables(pq.ParquetFile(f).read() for f in files).sort_by(
        [("doc_id", "ascending"), ("gen", "ascending")])


def _with_workers(monkeypatch, n):
    """Size the pool at ``n`` and record, for every segment the driver
    writes, whether it ran on the main thread (a reshard's segment tasks
    append to their own copies of the list)."""
    monkeypatch.setattr(build, "pool_workers", lambda: n)
    on_main, real = [], build._write_group

    def spy(*a, **kw):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*a, **kw)

    monkeypatch.setattr(build, "_write_group", spy)
    return on_main


@pytest.mark.parametrize("positions", [False, True])
def test_pool_and_inline_give_the_same_index(ray_session, tmp_path, monkeypatch,
                                             positions):
    """A build, a reshard of it and a replace add over it, once inline and
    once on a 4-thread pool: byte-identical segments and ``_docs``."""
    base = _write(tmp_path, "base.parquet", range(300), 3)
    # a replace add: half its rows replace live docs, half are new
    delta = _write(tmp_path, "delta.parquet", range(250, 350), 4)
    cfg = lambda: _cfg(store_positions=positions)  # noqa: E731
    out = {}
    for n in (1, 4):
        on_main = _with_workers(monkeypatch, n)
        idx = str(tmp_path / f"idx{n}")
        build.build_index(base, idx, cfg(), resume=False)
        assert len(on_main) == 8 and set(on_main) == {n == 1}
        built = (_segment_files(idx), _docs_rows(idx))
        resharded = str(tmp_path / f"re{n}")
        reshard_index(idx, resharded, 4, 2)
        add_documents(delta, idx, cfg(), on_conflict="replace")
        assert len(on_main) > 8 and set(on_main) == {n == 1}
        out[n] = [built, (_segment_files(resharded), _docs_rows(resharded)),
                  (_segment_files(idx), _docs_rows(idx))]
    for (seg1, docs1), (seg4, docs4) in zip(out[1], out[4]):
        assert seg1 and seg1 == seg4
        assert docs1.num_rows >= 300 and docs1.equals(docs4)
    (base_segs, _), _, (added_segs, added_docs) = out[1]
    assert len(added_segs) > len(base_segs) and added_docs.num_rows == 400


def test_null_text_in_the_last_slice_publishes_nothing(tmp_path, monkeypatch):
    """The key-naming ValueError of ``_check_text`` reaches the caller from a
    pool thread, and the build leaves no ``_docs`` and no segment."""
    monkeypatch.setattr(build, "pool_workers", lambda: 4)
    ids = list(range(100))
    src = pq.read_table(_write(tmp_path, "src.parquet", ids, 5))
    text = src["text"].to_pylist()
    text[-1] = None  # the last of four 32-row slices
    src = src.set_column(1, "text", pa.array(text, pa.string()))
    path = str(tmp_path / "bad.parquet")
    pq.write_table(src, path)
    msg = "text column 'text' is null in the row with doc_id=99"
    with pytest.raises(ValueError, match=msg):
        build.table_triples(src, _cfg())
    idx = str(tmp_path / "idx")
    with pytest.raises(ValueError, match=msg):
        build.build_index(path, idx, _cfg(), resume=False)
    assert not os.path.exists(os.path.join(idx, "_docs"))
    assert not os.path.exists(os.path.join(idx, "segments"))


def test_a_build_leaves_no_thread_behind(tmp_path, monkeypatch):
    """The pool's threads are joined before the build returns."""
    monkeypatch.setattr(build, "pool_workers", lambda: 4)
    threads, real = [], build.make_triples_fn

    def spy(*a, **kw):
        fn = real(*a, **kw)

        def triples(batch, ids=None):
            threads.append(threading.current_thread())
            return fn(batch, ids)

        return triples

    monkeypatch.setattr(build, "make_triples_fn", spy)
    src = _write(tmp_path, "src.parquet", range(200), 6)
    before = threading.active_count()
    build.build_index(src, str(tmp_path / "idx"), _cfg(), resume=False)
    assert threading.active_count() == before
    assert len(threads) == 7 and threading.main_thread() not in threads
    assert not any(t.is_alive() for t in threads)


def test_pool_map_keeps_order_and_raises_the_first_error(monkeypatch):
    monkeypatch.setattr(build, "pool_workers", lambda: 3)
    assert build.pool_map(lambda x: x * x, list(range(10))) == [x * x for x in range(10)]

    def fail(x):
        if x in (4, 7):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 4"):
        build.pool_map(fail, list(range(10)))


def test_a_driver_build_hashes_each_key_once(ray_session, tmp_path,
                                             monkeypatch):
    """A driver build and a small add from key columns hash each doc's key
    once: the doc table and the tokenize slices share the ids. The
    null-text error still names the key columns."""
    from archivesspace_virgo_ray.corpus import generate_corpus

    monkeypatch.setattr(build, "pool_workers", lambda: 4)
    hashed, real = [], build.doc_id_from_key

    def spy(*cols):
        hashed.append(len(cols[0]))
        return real(*cols)

    monkeypatch.setattr(build, "doc_id_from_key", spy)
    corpus = generate_corpus(150, seed=8, max_tokens=80)
    base, delta = (str(tmp_path / f) for f in ("base.parquet", "delta.parquet"))
    pq.write_table(corpus.slice(0, 120), base)
    pq.write_table(corpus.slice(120), delta)
    cfg = lambda: build.BuildConfig(n_shards=2, n_buckets=2, batch_size=32)  # noqa: E731
    idx = str(tmp_path / "idx")
    build.build_index(base, idx, cfg(), resume=False)
    assert sum(hashed) == 120
    add_documents(delta, idx, cfg())
    assert sum(hashed) == 150

    text = corpus["content"].to_pylist()
    text[40] = None
    bad = str(tmp_path / "bad.parquet")
    pq.write_table(corpus.set_column(corpus.schema.get_field_index("content"),
                                     "content", pa.array(text, pa.string())), bad)
    row = corpus.slice(40, 1).to_pylist()[0]
    key = ", ".join(f"{k}={row[k]!r}" for k in ("repo", "path", "commit"))
    with pytest.raises(ValueError, match=re.escape(f"null in the row with {key}")):
        build.build_index(bad, str(tmp_path / "bad_idx"), cfg(), resume=False)
