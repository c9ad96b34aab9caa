"""Every parquet file an index keeps is written in one codec
(``segments.PARQUET_CODEC``: zstd, no dictionary pages, no statistics),
by every writer: builds, adds, field updates, merges, vacuums, reshards
and both term-stats seals; the engine-owned tables also front-code their
``term`` column and embed no Arrow schema (``segments.ENGINE_CODEC``),
while ``_docs`` keeps its schema and with it the caller's meta column
types. Files in another codec (an index written before) still open and
answer bit-identically, a warmed pool answers BM25 without opening a
parquet file, so the codec's decode cost never reaches the query path,
and an index of the previous layout is refused by name."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

import archivesspace_virgo_ray.index.build as build_mod
from archivesspace_virgo_ray.index import query as Q
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.reshard import reshard_index
from archivesspace_virgo_ray.index.update import (
    add_documents,
    delete_documents,
    maintain,
    update_fields,
)
from archivesspace_virgo_ray.oracle import OracleIndex

VOCAB = [f"w{i}" for i in range(120)]


def _docs(n: int, first_id: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, len(VOCAB) + 1)
    return pd.DataFrame({
        "doc_id": np.arange(first_id, first_id + n, dtype=np.int64),
        "text": [" ".join(rng.choice(VOCAB, int(rng.integers(3, 30)),
                                     p=p / p.sum())) for _ in range(n)],
        "grp": [f"g{i % 3}" for i in range(n)],
    })


def _write(tmp_path, name: str, df: pd.DataFrame) -> str:
    path = str(tmp_path / name)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
    return path


def _cfg() -> BuildConfig:
    return BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                       id_col="doc_id", meta_cols=("grp",))


def _chunks(idx: str) -> list[tuple]:
    """(file, column, compression, has a dictionary page, has statistics,
    encodings) of every column chunk of every parquet file under ``idx``."""
    out = []
    for f in glob.glob(os.path.join(idx, "**", "*.parquet"), recursive=True):
        meta = pq.read_metadata(f)
        for r in range(meta.num_row_groups):
            for c in range(meta.num_columns):
                col = meta.row_group(r).column(c)
                out.append((os.path.relpath(f, idx), col.path_in_schema,
                            col.compression, col.has_dictionary_page,
                            col.is_stats_set, col.encodings))
    return out


def _assert_codec(idx: str, *must_hold: str) -> None:
    """Every column chunk under ``idx`` is zstd without a dictionary page
    or statistics, every ``term`` column (segment term tables and term
    stats) is front-coded, only ``_docs`` files embed an Arrow schema, and
    some parquet file's path contains each of ``must_hold``."""
    chunks = _chunks(idx)
    bad = [c for c in chunks if c[2:5] != ("ZSTD", False, False)]
    assert not bad, bad
    terms = [c for c in chunks if c[1] == "term"]
    assert terms and all("DELTA_BYTE_ARRAY" in c[5] for c in terms), terms
    files = {c[0] for c in chunks}
    assert {f for f in files if f.startswith(("segments", "_global"))} == {
        c[0] for c in terms} | {f for f in files if f.endswith("blocks.parquet")}
    for f in files:
        meta = pq.read_metadata(os.path.join(idx, f)).metadata or {}
        assert (b"ARROW:schema" in meta) == f.startswith("_docs"), f
    for part in ("terms.parquet", "blocks.parquet", "_docs", "termstats-",
                 *must_hold):
        assert any(part in f for f in files), (part, sorted(files))


def _batch(texts: list[str], k: int = 10) -> pa.Table:
    return pa.table({"query_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string()),
                     "k": pa.array([k] * len(texts), pa.int32())})


TEXTS = ["w0 w1", "w3 w17 w40", "w5", "w2 w9 w11 w60", "w99 w100", "w7 w0"]


def _assert_oracle(idx: str, live: dict[int, str]) -> None:
    """BM25 answers equal the oracle's over the live docs, to the bit."""
    oracle = OracleIndex(list(live), list(live.values()))
    searcher = Q.LocalSearcher(idx)
    for text in TEXTS:
        assert searcher.search(text, 10) == oracle.score_query(text, 10), text


def test_every_writer_uses_the_index_codec(ray_session, tmp_path, monkeypatch):
    base, add1, add2 = _docs(80, 0, 1), _docs(10, 1000, 2), _docs(12, 2000, 3)
    base_path = _write(tmp_path, "base.parquet", base)
    live = dict(zip(base["doc_id"], base["text"]))

    # a driver build and a Dataset-source build
    idx = str(tmp_path / "idx")
    build_index(base_path, idx, _cfg(), resume=False)
    _assert_codec(idx)
    ds_idx = str(tmp_path / "ds_idx")
    build_index(ray.data.read_parquet(base_path), ds_idx, _cfg(), resume=False)
    _assert_codec(ds_idx)

    # a small (driver) add, then an add through the Dataset exchange
    add_documents(_write(tmp_path, "a1.parquet", add1), idx, _cfg())
    _assert_codec(idx, "_g0001", "gen=0001")
    with monkeypatch.context() as m:
        m.setattr(build_mod, "_SMALL_SOURCE_ROWS", 0)
        add_documents(_write(tmp_path, "a2.parquet", add2), idx, _cfg())
    _assert_codec(idx, "_g0002", "gen=0002")
    live.update(zip(add1["doc_id"], add1["text"]))
    live.update(zip(add2["doc_id"], add2["text"]))

    update_fields(idx, pd.DataFrame({"doc_id": np.array([3, 1001], np.int64),
                                     "grp": ["gx", "gy"]}))
    _assert_codec(idx, "gen=0003")

    # a delete, then maintain's full merge and vacuum
    delete_documents(idx, [5, 2003])
    del live[5], live[2003]
    rep = maintain(idx, dead_ratio=0.0)
    assert rep["merged_pairs"] and rep["vacuum"]["vacuumed"], rep
    _assert_codec(idx)
    _assert_oracle(idx, live)

    dst = str(tmp_path / "resharded")
    reshard_index(idx, dst, 1, 4)
    _assert_codec(dst)
    _assert_oracle(dst, live)

    # the Ray groupby seal
    with monkeypatch.context() as m:
        m.setattr(build_mod, "_SEAL_DRIVER_MAX_BYTES", 0)
        ray_idx = str(tmp_path / "ray_seal")
        build_index(base_path, ray_idx, _cfg(), resume=False)
    _assert_codec(ray_idx)
    Q.shutdown_pools()


def _rewrite_snappy(path: str) -> None:
    """Rewrite one parquet file in pyarrow's default codec: snappy, with
    dictionary pages."""
    table = pq.ParquetFile(path).read()
    pq.write_table(table, path, compression="snappy")
    col = pq.read_metadata(path).row_group(0).column(0)
    assert (col.compression, col.has_dictionary_page) == ("SNAPPY", True)


def test_files_of_another_codec_answer_bit_identically(ray_session, tmp_path):
    """One segment's term and block tables, the doc table and a term-stats
    bucket rewritten in snappy with dictionary pages: the index still
    opens and its BM25 answers do not change by a bit, so the codec is no
    layout change and needs no PIPELINE_VERSION."""
    base = _docs(80, 0, 4)
    idx = str(tmp_path / "idx")
    build_index(_write(tmp_path, "base.parquet", base), idx, _cfg(),
                resume=False)
    Q.shutdown_pools()
    before = Q.bm25_topk(idx, _batch(TEXTS))
    assert before.num_rows

    seg = sorted(glob.glob(os.path.join(idx, "segments", "s*_b*")))[0]
    for f in ("terms.parquet", "blocks.parquet"):
        _rewrite_snappy(os.path.join(seg, f))
    for f in glob.glob(os.path.join(idx, "_docs", "**", "*.parquet"),
                       recursive=True):
        _rewrite_snappy(f)
    _rewrite_snappy(glob.glob(os.path.join(
        idx, "_global", "termstats-*", "bucket=0", "*.parquet"))[0])

    Q.shutdown_pools()
    assert Q.bm25_topk(idx, _batch(TEXTS)).equals(before)
    live = dict(zip(base["doc_id"], base["text"]))
    _assert_oracle(idx, live)
    Q.shutdown_pools()


def test_warm_pool_reads_no_parquet(ray_session, tmp_path, monkeypatch):
    """After one warm-up batch, batch tables and single queries through
    ``bm25_topk`` open no parquet file: the pool loads its segment tables
    at open and each term-stats bucket on first use, so no parquet codec
    is paid per query."""
    idx = str(tmp_path / "idx")
    build_index(_write(tmp_path, "base.parquet", _docs(80, 0, 5)), idx,
                _cfg(), resume=False)
    Q.shutdown_pools()
    Q.bm25_topk(idx, _batch([" ".join(VOCAB)]))  # warm-up: every bucket

    opened: list[str] = []

    def spy(real):
        def call(*args, **kwargs):
            opened.append(str(args[0]) if args else "?")
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(pq, "ParquetFile", spy(pq.ParquetFile))
    monkeypatch.setattr(pq, "read_table", spy(pq.read_table))
    n_rows = 0
    for k in (3, 7):
        n_rows += Q.bm25_topk(idx, _batch(TEXTS, k)).num_rows
    for i, text in enumerate(TEXTS):
        n_rows += Q.bm25_topk(idx, _batch([text], k=5 + i)).num_rows
    assert n_rows and opened == []
    Q.shutdown_pools()


def test_repeated_query_ids_raise(ray_session, tmp_path):
    """Answers are keyed by query id, so a second row with the same id
    would silently replace the first: every entry point that keys them
    refuses such a table, naming the id."""
    from archivesspace_virgo_ray.index.federated import FederatedSearcher
    from archivesspace_virgo_ray.index.multifield import dismax_topk
    from archivesspace_virgo_ray.index.phrase import phrase_topk
    from archivesspace_virgo_ray.index.qparser import querystring_topk

    docs_path = _write(tmp_path, "base.parquet", _docs(40, 0, 6))
    idx = str(tmp_path / "idx")
    build_index(docs_path, idx, _cfg(), resume=False)
    Q.shutdown_pools()
    dup = pa.table({"query_id": pa.array([4, 0, 4], pa.int64()),
                    "text": pa.array(["w1 w2", "w3", "w0"], pa.string()),
                    "k": pa.array([3, 3, 3], pa.int32())})
    pool = Q.get_pool(idx)
    calls = [
        lambda: Q.bm25_topk(idx, dup),
        lambda: Q.lmd_topk(idx, dup),
        lambda: pool.topk_time_allowed(dup, 10.0),
        lambda: pool.grouped_topk(dup, "grp"),
        lambda: pool.boosted_topk(dup, "grp", {"g0": 2.0}),
        lambda: Q.LocalSearcher(idx)._ranked(dup),
        lambda: FederatedSearcher([idx]).topk(dup),
        lambda: dismax_topk([(idx, 1.0)], dup),
        lambda: phrase_topk(idx, docs_path, dup),
        lambda: querystring_topk(idx, dup),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="query_id 4 repeats"):
            call()
    # distinct ids answer every row
    ok = dup.set_column(0, "query_id", pa.array([4, 0, 5], pa.int64()))
    assert set(Q.bm25_topk(idx, ok)["query_id"].to_pylist()) == {0, 4, 5}
    Q.shutdown_pools()


def test_docs_meta_types_survive_every_docs_writer(ray_session, tmp_path):
    """``_docs`` keeps its embedded Arrow schema: a tz-aware timestamp
    meta column and a large_string one keep their types through a build,
    a small add and the vacuum of ``maintain(dead_ratio=0.0)``."""
    ts_type = pa.timestamp("us", tz="America/New_York")

    def table(df: pd.DataFrame) -> str:
        t = pa.Table.from_pandas(df, preserve_index=False)
        n = t.num_rows
        t = t.append_column("at", pa.array(
            1_700_000_000_000_000 + 3_600_000_000 * df["doc_id"].to_numpy(),
            pa.int64()).cast(ts_type))
        t = t.append_column("note", pa.array(
            [f"n{i}" for i in range(n)], pa.large_string()))
        path = str(tmp_path / f"{int(df['doc_id'].iloc[0])}.parquet")
        pq.write_table(t, path)
        return path

    cfg = lambda: BuildConfig(n_shards=2, n_buckets=2, text_col="text",  # noqa: E731
                              id_col="doc_id", meta_cols=("grp", "at", "note"))

    def assert_types(idx: str, n_files: int) -> None:
        files = glob.glob(os.path.join(idx, "_docs", "**", "*.parquet"),
                          recursive=True)
        assert len(files) >= n_files
        for f in files:
            schema = pq.ParquetFile(f).schema_arrow
            assert schema.field("at").type == ts_type, f
            assert schema.field("note").type == pa.large_string(), f

    base, add = _docs(40, 0, 7), _docs(8, 500, 8)
    idx = str(tmp_path / "idx")
    build_index(table(base), idx, cfg(), resume=False)
    assert_types(idx, 1)
    add_documents(table(add), idx, cfg())
    assert_types(idx, 2)
    delete_documents(idx, [3, 502])
    rep = maintain(idx, dead_ratio=0.0)
    assert rep["vacuum"]["vacuumed"], rep
    assert_types(idx, 1)
    live = {**dict(zip(base["doc_id"], base["text"])),
            **dict(zip(add["doc_id"], add["text"]))}
    del live[3], live[502]
    _assert_oracle(idx, live)
    Q.shutdown_pools()


def test_a_v10_index_is_refused_naming_its_version(ray_session, tmp_path):
    """An ``avr-index-10`` segment (its term table still holding max_tf and
    min_dl) and an ``avr-index-10`` index refuse to open, each naming the
    version and saying to rebuild."""
    import json

    from archivesspace_virgo_ray import PIPELINE_VERSION
    from archivesspace_virgo_ray.index.segments import (
        SegmentReader,
        segment_term_stats,
    )

    idx, src = str(tmp_path / "idx"), _write(tmp_path, "base.parquet",
                                             _docs(40, 0, 9))
    build_index(src, idx, _cfg(), resume=False)
    Q.shutdown_pools()
    old = "avr-index-10"
    assert PIPELINE_VERSION != old
    seg = sorted(glob.glob(os.path.join(idx, "segments", "s*_b*")))[0]
    # the v10 layout: term, df, cf, max_tf, min_dl
    pq.write_table(segment_term_stats(seg), os.path.join(seg, "terms.parquet"))
    with open(os.path.join(seg, "manifest.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(seg, "manifest.json"), "w") as f:
        json.dump({**manifest, "pipeline_version": old}, f)
    with pytest.raises(ValueError, match=f"'{old}'.*rebuild the index"):
        SegmentReader(idx, name=os.path.basename(seg))

    for marker in glob.glob(os.path.join(idx, "_global", "gens", "g*.json")):
        with open(marker) as f:
            m = json.load(f)
        m["stats"]["pipeline_version"] = old
        with open(marker, "w") as f:
            json.dump(m, f)
    for open_index in (lambda: Q.LocalSearcher(idx), lambda: Q.get_pool(idx),
                       lambda: build_index(src, idx, _cfg())):
        with pytest.raises(ValueError, match=f"'{old}'.*rebuild the index"):
            open_index()
    Q.shutdown_pools()
