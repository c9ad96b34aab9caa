"""Reproducible scale smokes: corpus gen (Ray-parallel) + index build +
reshard + index maintenance + query timing at configurable doc counts.

Usage:
    python tools/smoke_scale.py build   [n_docs] [object_store_gb]
    python tools/smoke_scale.py reshard [n_docs]
    python tools/smoke_scale.py maintain [n_docs]
    python tools/smoke_scale.py query   [n_docs]

These are the scripts behind the numbers in SCALE.md / BASELINE.md — run
them to reproduce (expect ±40% VM drift per CLAUDE.md; best-of-N yourself).
"""
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray  # noqa: E402
import ray.data  # noqa: E402

_TMP = tempfile.gettempdir()  # corpora and indexes; set TMPDIR to move them


def _init(store_gb: float = 0.0):
    kw = {"object_store_memory": int(store_gb * 2**30)} if store_gb else {}
    ray.init(address="local", num_cpus=os.cpu_count(),
             include_dashboard=False, logging_level="ERROR", **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _corpus(n_docs: int) -> str:
    from archivesspace_virgo_ray.corpus import write_corpus_sharded

    d = f"{_TMP}/avr_smoke_corpus_{n_docs}"
    if not os.path.exists(d + "/_DONE"):
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.time()
        write_corpus_sharded(d, n_docs, seed=5)
        open(d + "/_DONE", "w").close()
        print(f"gen {time.time() - t0:.1f}s", flush=True)
    return d


def smoke_build(n_docs: int, store_gb: float) -> None:
    """Build one corpus twice: as a Dataset (the staged exchange) and as a
    path (read and indexed on the driver when within build_index's size
    rule, else the same staged exchange). Each build's line ends with the
    driver path's thread count (``build.pool_workers``: k workers hold k
    slices' tokenizer temporaries at once) and the driver's peak RSS so
    far; the Dataset build runs first, so the path line's peak covers the
    driver-side read. Then one ``census`` line per parquet column of the
    index and per class's footer bytes (``column_census``): copy this
    script into another checkout's ``tools/`` to compare two commits'
    formats column by column."""
    import resource

    from archivesspace_virgo_ray.index.build import (
        BuildConfig, build_index, pool_workers)

    _init(store_gb)
    corpus = _corpus(n_docs)
    idx = f"{_TMP}/avr_smoke_idx_{n_docs}"
    cfg = BuildConfig()  # the columns build_index reads from a path
    cols = list(dict.fromkeys([*cfg.key_cols, *cfg.meta_cols, cfg.text_col]))
    for name, source in (
            ("dataset", lambda: ray.data.read_parquet(corpus, columns=cols)),
            ("path", lambda: corpus)):
        shutil.rmtree(idx, ignore_errors=True)
        t0 = time.time()
        stats = build_index(source(), idx, BuildConfig(batch_size=2000),
                            resume=False)
        dt = time.time() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"n_docs={n_docs} input={name} store_gb={store_gb or 'default'} "
              f"build={dt:.2f}s docs_per_sec={stats['n_docs'] / dt:.0f} "
              f"postings={stats['n_postings']} layout="
              f"{stats['n_shards']}x{stats['n_buckets']} "
              f"workers={pool_workers()} "
              f"driver_peak_rss_mb={rss_mb:.0f}", flush=True)
        for key, n in column_census(idx).items():
            print(f"census input={name} {key}={n}", flush=True)
    shutil.rmtree(idx, ignore_errors=True)
    ray.shutdown()


def smoke_reshard(n_docs: int) -> None:
    from archivesspace_virgo_ray.index.build import BuildConfig, build_index
    from archivesspace_virgo_ray.index.reshard import (
        reshard_index,
        segments_equal,
    )

    _init()
    corpus = _corpus(n_docs)
    a, b, c = (f"{_TMP}/avr_smoke_rs_{n_docs}_{x}" for x in "abc")
    for d in (a, b, c):
        shutil.rmtree(d, ignore_errors=True)
    t0 = time.time()
    build_index(corpus, a, BuildConfig(n_shards=8, n_buckets=8,
                                       batch_size=2000), resume=False)
    t_build = time.time() - t0
    t0 = time.time()
    reshard_index(a, b, n_shards=4, n_buckets=16)
    t_rs = time.time() - t0
    t0 = time.time()
    build_index(corpus, c, BuildConfig(n_shards=4, n_buckets=16,
                                       batch_size=2000), resume=False)
    t_rb = time.time() - t0
    same = segments_equal(b, c)
    print(f"n_docs={n_docs} build_8x8={t_build:.1f}s reshard={t_rs:.1f}s "
          f"rebuild_4x16={t_rb:.1f}s byte_identical={same}", flush=True)
    for d in (a, b, c):
        shutil.rmtree(d, ignore_errors=True)
    ray.shutdown()


def smoke_maintain(n_docs: int) -> None:
    """Index lifecycle at scale: base build + 4 delta adds + deletes +
    replaces, then the two compaction strategies side by side — a tiered
    fold (cost ~ folded deltas) vs maintain's garbage-gated full merge +
    vacuum (cost ~ whole index). The printed ratio is the LSM claim."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from archivesspace_virgo_ray.corpus import generate_corpus
    from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
    from archivesspace_virgo_ray.index.build import BuildConfig, build_index
    from archivesspace_virgo_ray.index.fsck import fsck_index
    from archivesspace_virgo_ray.index.segments import read_stats
    from archivesspace_virgo_ray.index.update import (
        add_documents,
        delete_documents,
        maintain,
        tiered_merge,
    )

    _init()
    corpus = _corpus(n_docs)
    idx = f"{_TMP}/avr_smoke_mt_{n_docs}"
    shutil.rmtree(idx, ignore_errors=True)
    cfg = BuildConfig(batch_size=2000)
    t0 = time.time()
    stats = build_index(corpus, idx, cfg, resume=False)
    cfg.n_shards, cfg.n_buckets = stats["n_shards"], stats["n_buckets"]
    t_build = time.time() - t0

    # 4 small delta generations with fresh keys
    n_delta = max(n_docs // 200, 500)
    t0 = time.time()
    deltas = []
    for i in range(4):
        t = generate_corpus(n_delta, seed=1000 + i)
        t = t.set_column(
            t.column_names.index("repo"), "repo",
            pa.array([f"delta{i}/{r}" for r in t["repo"].to_pylist()]))
        p = f"{_TMP}/avr_smoke_mt_delta{i}.parquet"
        pq.write_table(t, p)
        deltas.append(p)
        add_documents(p, idx, cfg)
    t_adds = time.time() - t0

    # delete ~1% of the base, replace one whole delta (same keys)
    first = next(
        os.path.join(r, f) for r, _d, fs in os.walk(corpus)
        for f in sorted(fs) if f.endswith(".parquet"))
    head = pq.read_table(first, columns=["repo", "path", "commit"])
    victims = doc_id_from_key(
        head["repo"].to_pylist(), head["path"].to_pylist(),
        head["commit"].to_pylist())[: max(n_docs // 100, 100)]
    t0 = time.time()
    delete_documents(idx, sorted(set(victims.tolist())))
    add_documents(deltas[0], idx, cfg, on_conflict="replace")
    t_mut = time.time() - t0

    t0 = time.time()
    fold = tiered_merge(idx, merge_factor=2)
    t_fold = time.time() - t0
    t0 = time.time()
    rep = maintain(idx, merge_factor=2, dead_ratio=0.001)
    t_maint = time.time() - t0
    ok = fsck_index(idx)["ok"]
    print(f"n_docs={n_docs} build={t_build:.1f}s adds4x{n_delta}={t_adds:.1f}s "
          f"del+repl={t_mut:.1f}s fold={t_fold:.1f}s "
          f"(rounds={len(fold['rounds'])}) "
          f"maintain={t_maint:.1f}s (merged_pairs={rep['merged_pairs']}, "
          f"vacuum={rep.get('vacuum')}) fold/full={t_fold / max(t_maint, 1e-9):.2f} "
          f"n_docs_final={read_stats(idx)['n_docs']} fsck_ok={ok}", flush=True)
    shutil.rmtree(idx, ignore_errors=True)
    ray.shutdown()
    if not ok or not rep["merged_pairs"]:
        raise SystemExit("maintain smoke failed: fsck not ok or no pair merged")


def _query_corpus(sizes, seed: int, step: int = 10_000) -> str:
    """``perfbench``'s corpus of ``sizes`` written ``step`` rows per parquet
    file, each slice from its own random stream, so generating a million
    documents holds one slice in memory (``gen.cached_corpus`` makes the
    whole table at once)."""
    import numpy as np
    import pyarrow.parquet as pq

    from perfbench import gen

    d = f"{_TMP}/avr_smoke_q_corpus_{sizes.n_docs}"
    if not os.path.exists(d + "/_DONE"):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        for lo in range(0, sizes.n_docs, step):
            rows = np.arange(lo, min(lo + step, sizes.n_docs))
            pq.write_table(
                gen._table(rows, sizes, seed, gen._rng(seed, f"corpus{lo}"),
                           [gen.needle(int(r)) for r in rows]),
                f"{d}/part-{lo // step:05d}.parquet")
        open(d + "/_DONE", "w").close()
    return d


# an index's file classes: a segment file by its name, else the top-level
# dir (term stats live under _global/termstats-*)
_SEGMENT_FILES = {"postings.bin": "postings", "terms.parquet": "term_dict",
                  "blocks.parquet": "block_table", "docs.bin": "docs_bin"}


def _file_class(idx: str, d: str, f: str) -> str:
    """The ``index_census`` class of file ``f`` in dir ``d`` of ``idx``."""
    top = os.path.relpath(d, idx).split(os.sep)
    if top[0] == "segments":
        return _SEGMENT_FILES.get(f, "other")
    if top[0] == "_docs":
        return "_docs"
    if top[0] == "_global" and top[1:2] and top[1].startswith("termstats"):
        return "termstats"
    return "other"


def index_census(idx: str) -> dict[str, int]:
    """Bytes of index ``idx`` by file class: ``postings.bin``, the term
    dictionary, the block table, ``docs.bin``, the forward doc table
    ``_docs`` and the global term stats; manifests, positions and the
    rest count as ``other``."""
    out = dict.fromkeys((*_SEGMENT_FILES.values(), "_docs", "termstats",
                         "other"), 0)
    for d, _dirs, files in os.walk(idx):
        for f in files:
            out[_file_class(idx, d, f)] += os.path.getsize(os.path.join(d, f))
    return out


def column_census(idx: str) -> dict[str, int]:
    """Bytes of index ``idx``'s parquet files by class and column
    (``term_dict.term``, ``_docs.sha256``, ...): each column's compressed
    chunks, page headers included. Per class, ``<class>.footer`` holds
    the rest of its files' bytes: footers (with any embedded Arrow schema
    and column statistics) and magic."""
    import pyarrow.parquet as pq

    out: dict[str, int] = {}
    for d, _dirs, files in os.walk(idx):
        for f in files:
            if not f.endswith(".parquet"):
                continue
            cls, path = _file_class(idx, d, f), os.path.join(d, f)
            meta = pq.read_metadata(path)
            left = os.path.getsize(path)
            for r in range(meta.num_row_groups):
                for j in range(meta.num_columns):
                    col = meta.row_group(r).column(j)
                    key = f"{cls}.{col.path_in_schema}"
                    out[key] = out.get(key, 0) + col.total_compressed_size
                    left -= col.total_compressed_size
            out[f"{cls}.footer"] = out.get(f"{cls}.footer", 0) + left
    return dict(sorted(out.items()))


def smoke_query(n_docs: int) -> None:
    """Query cost at scale, in-process through ``LocalSearcher``: the
    ``perfbench`` corpus (``_query_corpus``) and query mix of ``n_docs``
    (seed 1401, a 2×2 index, built once under TMPDIR and reused while its
    ``PIPELINE_VERSION`` is current), its index bytes per input byte and
    each file class's share of them (``index_census``), its 8 batch
    tables planned, scored and merged three times (the median pass gives
    rows/s), then 200 single queries of its request stream (p50 latency).
    Then the same through ``bm25_topk`` after a cold ``get_pool`` (its
    seconds printed), every query under a fresh id so the pool's result
    cache never hits. Prints the driver's peak RSS after each part."""
    import resource
    import statistics

    import numpy as np
    import pyarrow as pa

    from archivesspace_virgo_ray import PIPELINE_VERSION
    from archivesspace_virgo_ray.index.build import BuildConfig, build_index
    from archivesspace_virgo_ray.index.query import (
        LocalSearcher,
        _merge_topk_parts,
        _plan_batch,
        bm25_topk,
        get_pool,
        shutdown_pools,
    )
    from archivesspace_virgo_ray.index.segments import read_stats
    from perfbench import gen

    seed = 1401
    sizes = gen.Sizes(n_docs=n_docs)
    idx = f"{_TMP}/avr_smoke_q_{n_docs}"
    try:  # an index of another PIPELINE_VERSION refuses to open
        current = read_stats(idx).get("pipeline_version") == PIPELINE_VERSION
    except (OSError, ValueError):
        current = False
    if not current:
        shutil.rmtree(idx, ignore_errors=True)
        _init()
        build_index(_query_corpus(sizes, seed), idx,
                    BuildConfig(n_shards=2, n_buckets=2), resume=False)
        ray.shutdown()
    census = index_census(idx)
    total = sum(census.values())
    print(f"n_docs={n_docs} index_bytes={total} index_bytes_per_input_byte="
          f"{total / gen.parquet_bytes(_query_corpus(sizes, seed)):.4f} "
          + " ".join(f"{k}={v / total:.3f}" for k, v in census.items()),
          flush=True)
    mix = gen.query_mix(sizes, seed)
    ls = LocalSearcher(idx)
    rows = sum(t.num_rows for t in mix.batches)
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        for tbl in mix.batches:
            plan = _plan_batch(ls.store, tbl)
            part, _done = ls.worker.score(plan)
            _merge_topk_parts(plan.queries, [part])
        passes.append(time.perf_counter() - t0)
    lat = []
    for j in mix.stream[:200].tolist():
        t0 = time.perf_counter()
        ls.search(mix.texts[j], mix.ks[j])
        lat.append(time.perf_counter() - t0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"n_docs={n_docs} batch_rows_per_s={rows / statistics.median(passes):.0f} "
          f"single_p50_ms={1e3 * float(np.median(lat)):.2f} "
          f"driver_peak_rss_mb={rss_mb:.0f}", flush=True)

    next_id = iter(range(1 << 40, 1 << 41))

    def fresh(tbl):  # new query ids: the result cache never hits
        ids = pa.array([next(next_id) for _ in range(tbl.num_rows)], pa.int64())
        return tbl.set_column(tbl.schema.get_field_index("query_id"),
                              "query_id", ids)

    batches = [[fresh(t) for t in mix.batches] for _ in range(3)]
    singles = [fresh(pa.table({"query_id": pa.array([0], pa.int64()),
                               "text": pa.array([mix.texts[j]]),
                               "k": pa.array([mix.ks[j]], pa.int32())}))
               for j in mix.stream[:200].tolist()]
    _init()
    shutdown_pools()
    t0 = time.perf_counter()
    get_pool(idx)
    open_s = time.perf_counter() - t0
    passes = []
    for tables in batches:
        t0 = time.perf_counter()
        for tbl in tables:
            bm25_topk(idx, tbl)
        passes.append(time.perf_counter() - t0)
    lat = []
    for tbl in singles:
        t0 = time.perf_counter()
        bm25_topk(idx, tbl)
        lat.append(time.perf_counter() - t0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"n_docs={n_docs} pool_open_s={open_s:.3f} "
          f"pool_batch_rows_per_s={rows / statistics.median(passes):.0f} "
          f"pool_single_p50_ms={1e3 * float(np.median(lat)):.2f} "
          f"driver_peak_rss_mb={rss_mb:.0f}", flush=True)
    shutdown_pools()
    ray.shutdown()


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else "build"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 500_000
    if mode == "build":
        smoke_build(n, float(sys.argv[3]) if len(sys.argv) > 3 else 0.0)
    elif mode == "reshard":
        smoke_reshard(n)
    elif mode == "maintain":
        smoke_maintain(n)
    elif mode == "query":
        smoke_query(n)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
