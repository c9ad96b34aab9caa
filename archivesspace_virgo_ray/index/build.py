"""Distributed inverted-index build — the flagship Ray Data pipeline.

Replaces the reference's post-to-Solr sink (SolrHelper.postFileToSolr,
SolrHelper.java:82-96) with a from-scratch index build:

    read_parquet (pruned cols)
      → map_batches(tokenize → (term, doc_id, tf, dl) triples, zero-copy Arrow)
      → write_segments: hash-partition by (shard, bucket) to parquet
        staging (THE wide exchange), then one write_segment task per
        group                             # checkpointed, atomic, resumable
      → seal: global term stats + corpus stats

A parquet path of at most ``_SMALL_SOURCE_ROWS`` rows (the one size rule
of build and delta add, ``read_small_source``) skips Ray Data: the driver
reads it as one table, writes the doc table, then tokenizes its slices and
writes its segments on a thread pool of one worker per core of the
process's affinity mask (``pool_map``) — the same segment bytes, without
the fixed cost of two Ray Data executions and cold segment tasks.

Scale notes (designed for 10^12 docs / many-node clusters, tested locally):

- **Skew / salting**: doc-sharding IS the head-term salt — a head term's
  postings split across ``n_shards`` groups, each bounded by its doc shard.
  Because the salt is the doc-shard (disjoint doc_id populations), the global
  posting list for a term is the concatenation of its per-shard lists — no
  merge pass is ever needed, and query-time fan-out is the standard
  document-sharded scatter/merge.
- **dl rides with the triple**: a document lives wholly inside one input
  batch, so its token length is computed at tokenize time and carried in the
  triple — the per-posting BM25 length norm needs no doc-length join at
  query time (the J8 analog is eliminated).
- **Resume**: completed (shard, bucket) segments are detected from manifests
  before the run and their triples are dropped at the tokenize stage, so a
  restart re-stages only missing segments.
- **Two passes** over the corpus: pass 1 writes the forward doc table
  (doc_id, sha256, meta — the per-row invariant vs the source, input_hint)
  WITHOUT tokenizing; pass 2 builds postings, tokenizing exactly once (doc
  lengths ride in the triples; corpus totals come from segment manifest
  counters). Above the size rule both stream concurrently and nothing
  materializes the corpus; at or below it the doc table is written first,
  then the triples pass runs its slices, and then its segments, on
  ``pool_map``'s threads.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from .. import PIPELINE_VERSION
from ..functions.hashing import doc_id_from_key, sha256_hex_arrow
from .locking import locked_on, nonlock_contents, wipe_index_dir
from ..functions.tokenize import batch_term_codes, stable_hash_strings
from .postings import TERM_COLUMNS
from .segments import (
    BUILD_ID,
    DOCS,
    ENGINE_CODEC,
    GLOBAL,
    PARQUET_CODEC,
    STAGING,
    TERMSTATS_COLUMNS,
    _docs_columns,
    _committed_markers,
    _parquet_files,
    _parquet_rows,
    column_numpy,
    list_complete_segments,
    live_segments,
    parquet_decoded_bytes,
    read_build_id,
    read_stats,
    segment_bucket,
    segment_term_stats,
    termstats_dir,  # noqa: F401  (re-exported beside the term-stats writers)
    write_segment,
    write_table,
)


_TARGET_GROUP_BYTES = 256 << 20  # max raw text a segment-writer task holds
_RAW_EXPANSION = 3.0             # parquet-bytes → in-memory text estimate

# The one size rule of build_index and add_documents: a source of at most
# this many rows is indexed on the driver. A Ray Data execution and a cold
# segment task each have a fixed cost that dwarfs the work on such a source
# (and near-real-time ingestion latency is the delta path's whole point);
# larger sources stream through write_segments' staged exchange.
_SMALL_SOURCE_ROWS = 50_000


def is_small(n_rows: int) -> bool:
    """True if ``n_rows`` rows are few enough to index on the driver."""
    return n_rows <= _SMALL_SOURCE_ROWS


def pool_workers() -> int:
    """Cores this process may run on: its affinity mask. Not ``nproc``,
    which ``OMP_NUM_THREADS`` overrides: the engine runs no OpenMP, and
    Arrow sizes its own pool by ``pa.cpu_count()``."""
    return len(os.sched_getaffinity(0))


def pool_map(fn, items: list) -> list:
    """``[fn(x) for x in items]``, on one thread per core (``pool_workers``,
    at most one per item) and inline when that is one. The driver build's
    tokenize slices and segment writes are Arrow kernels, numpy sorts and
    file writes, which release the GIL. Results come back in ``items``'
    order; the first error in that order is raised once every call has
    returned, and the pool's threads are joined before this returns."""
    n = min(pool_workers(), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(n) as pool:
        return list(pool.map(fn, items))


def read_small_source(source, columns: list[str]) -> pa.Table | None:
    """``source`` as one driver-side table when it is a parquet path whose
    footers count a small number of rows (``is_small``); None for a larger
    path, an empty one, or a ``ray.data.Dataset``."""
    import pyarrow.parquet as pq

    if not isinstance(source, str):
        return None
    files = _parquet_files(source)
    if not files or not is_small(
            sum(pq.ParquetFile(f).metadata.num_rows for f in files)):
        return None
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def auto_shards_buckets(
    input_bytes: int, total_cpus: int | None = None
) -> tuple[int, int]:
    """Derive (n_shards, n_buckets) so ONE ``write_segments`` writer task
    holds at most ~``_TARGET_GROUP_BYTES`` of raw corpus text (each group is
    ~corpus/(n_shards×n_buckets)), with a CPU floor so small corpora still
    fan out (≥2 groups per core). Shards are a power of two ≥ √groups —
    doc routing is ``doc_id % n_shards`` and query fan-out scales with
    shards — buckets cover the remainder.

    At 100 TB this lands around 1024 shards × ~1100 buckets: ~4 shards per
    node on a 256-node cluster, no reducer ever materializing more than a
    few hundred MB."""
    import math

    if total_cpus is None:
        total_cpus = 8
        try:
            import ray

            if ray.is_initialized():
                total_cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            pass
    by_bytes = math.ceil(max(1, input_bytes) * _RAW_EXPANSION / _TARGET_GROUP_BYTES)
    n_groups = max(by_bytes, 2 * total_cpus, 16)
    n_shards = 1 << max(2, math.ceil(math.log2(math.sqrt(n_groups))))
    n_buckets = max(4, math.ceil(n_groups / n_shards))
    return n_shards, n_buckets


def _estimate_input_bytes(source) -> int:
    """On-disk bytes of the input (metadata only — nothing is read)."""
    import glob as _glob

    if isinstance(source, str):
        if os.path.isdir(source):
            return sum(
                os.path.getsize(f)
                for f in _glob.glob(os.path.join(source, "**", "*.parquet"),
                                    recursive=True)
            )
        return os.path.getsize(source) if os.path.exists(source) else 0
    try:
        return int(source.size_bytes() or 0)
    except Exception:
        return 0


@dataclass
class BuildConfig:
    # None → auto-sized from input bytes + cluster CPUs (auto_shards_buckets)
    n_shards: int | None = 8
    n_buckets: int | None = 8
    text_col: str = "content"
    id_col: str | None = None            # None → derive from key_cols via sha256
    key_cols: tuple = ("repo", "path", "commit")
    meta_cols: tuple = ("repo", "path", "commit", "lang")
    batch_size: int = 256                # docs per tokenize batch (large text rows)
    # store per-posting token positions (Lucene-style positional index):
    # phrase / ordered-proximity queries then verify inside the index instead
    # of re-reading candidate raw text. Costs ~1 varbyte per token occurrence
    # in segment bytes + exchange volume.
    store_positions: bool = False
    # pre-tokenize analysis rewrite applied to the text column (Solr
    # analysis-chain analog): "plain" = none; "ident" = identifier split
    # (camelCase + snake_case -> parts) for source-code fields. Recorded in
    # the markers' stats — query planning reads it back and rewrites QUERY
    # text the same way, so callers never pre-analyze by hand.
    analyzer: str = "plain"
    lineage: dict = field(default_factory=dict)


def _check_text(batch: pa.Table, cfg: BuildConfig) -> None:
    """Raise ValueError naming the text column and the key of the first
    row whose text is null: a null is no document, and indexing it as an
    empty one would hide a broken source."""
    col = batch[cfg.text_col]
    if not col.null_count:
        return
    row = pc.index(pc.is_null(col), True).as_py()
    keys = [cfg.id_col] if cfg.id_col is not None else list(cfg.key_cols)
    key = ", ".join(f"{k}={batch[k][row].as_py()!r}" for k in keys)
    raise ValueError(f"text column {cfg.text_col!r} is null in the row "
                     f"with {key}")


@contextlib.contextmanager
def batch_errors_as_raised(ds: ray.data.Dataset):
    """Run the block with ``ds``'s batch functions raising their own
    errors: a ValueError one raises (``_check_text``) reaches the caller as
    itself. Ray Data otherwise wraps it in a ``UserCodeException`` whose
    cause does not survive the task boundary."""
    ctx = ds.context
    wrapped = ctx.raise_original_map_exception
    ctx.raise_original_map_exception = True
    try:
        yield
    except ray.exceptions.RayTaskError as e:
        if isinstance(e.cause, ValueError):
            raise e.cause from None
        raise
    finally:
        ctx.raise_original_map_exception = wrapped


def _assign_ids(batch: pa.Table, cfg: BuildConfig) -> np.ndarray:
    """The doc ids of ``batch``'s rows: its id column, else a hash of its
    key columns (``doc_id_from_key``, a Python loop: a driver-side table
    hashes once and hands the ids to both passes)."""
    if cfg.id_col is not None:
        return batch[cfg.id_col].to_numpy()
    cols = [batch[c].to_pylist() for c in cfg.key_cols]
    return doc_id_from_key(*cols)


def make_doc_stats_fn(cfg: BuildConfig, gen: int = 0):
    """Pass-1 batch fn: forward doc table (sha256 per-row invariant + meta).

    Deliberately does NOT tokenize — doc lengths ride inside the posting
    triples (pass 2) and corpus totals come from the segment manifests, so
    the corpus text is tokenized exactly once. ``ids``: the batch's doc
    ids when the caller has them (``_assign_ids``), else hashed here.

    ``gen``: the generation the rows belong to (0 = base build) — readers
    resolve a doc's CURRENT version as its max-gen row (replace-by-id
    semantics, update.add_documents)."""

    def doc_stats(batch: pa.Table, ids=None) -> pa.Table:
        _check_text(batch, cfg)
        if ids is None:
            ids = _assign_ids(batch, cfg)
        out = {
            "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
            "sha256": sha256_hex_arrow(batch[cfg.text_col]),
            "shard": pa.array(
                (np.asarray(ids, dtype=np.int64) % cfg.n_shards).astype(np.int32)
            ),
            "gen": pa.array(np.full(len(ids), gen, dtype=np.int64)),
        }
        for c in cfg.meta_cols:
            if c in batch.column_names:
                out[c] = batch[c]
        return pa.table(out)

    return doc_stats


def make_triples_fn(cfg: BuildConfig, completed_gkeys: frozenset[int]):
    """Pass-2 batch fn: (term, doc_id, tf, dl, gkey) triples; resume-filtered.
    ``ids`` as for ``make_doc_stats_fn``."""

    def triples(batch: pa.Table, ids=None) -> pa.Table:
        # the Arrow column feeds the tokenize kernel directly, and every
        # posting stays a vocabulary code: Python strings are made once per
        # distinct term of the batch, never per posting
        _check_text(batch, cfg)
        texts = batch[cfg.text_col]
        if cfg.analyzer != "plain":
            from ..functions.tokenize import apply_analyzer_arrow

            texts = apply_analyzer_arrow(cfg.analyzer, texts)
        if ids is None:
            ids = _assign_ids(batch, cfg)
        ids = np.asarray(ids, dtype=np.int64)
        codes, vocab, doc_ids, tfs, dls, pos = batch_term_codes(
            ids, texts, cfg.store_positions)
        # a term's bucket hashes once per batch vocabulary entry
        vocab_bucket = (stable_hash_strings(vocab.to_pylist())
                        % np.uint64(cfg.n_buckets)).astype(np.int64)
        gkey = ((doc_ids % cfg.n_shards) * cfg.n_buckets
                + vocab_bucket[codes]).astype(np.int32)
        if completed_gkeys:
            keep = ~np.isin(gkey, np.fromiter(completed_gkeys, dtype=np.int64))
            codes, doc_ids, tfs, dls, gkey = (
                codes[keep], doc_ids[keep], tfs[keep], dls[keep], gkey[keep])
            if pos is not None:
                pos = pos.filter(pa.array(keep))
        # tf/dl/gkey ride the wide exchange as int32: a doc never exceeds
        # 2^31 tokens and gkey is bounded by shards*buckets — 12 fewer bytes
        # per posting is ~27% of the exchange at code-corpus posting widths
        # (the 2M-doc smoke showed this exchange is what spills at scale).
        # write_segment re-widens to int64 at encode time; values identical.
        return pa.table(
            {
                "term": vocab.take(pa.array(codes, pa.int64())),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "tf": pa.array(tfs.astype(np.int32)),
                "dl": pa.array(dls.astype(np.int32)),
                **({"pos": pos} if pos is not None else {}),
                "gkey": pa.array(gkey, pa.int32()),
            }
        )

    return triples


def table_triples(table: pa.Table, cfg: BuildConfig,
                  completed_gkeys: frozenset[int] = frozenset(),
                  ids: np.ndarray | None = None) -> pa.Table:
    """``make_triples_fn`` over a driver-side table in ``cfg.batch_size``
    row slices, as the Dataset path feeds it, on ``pool_map``'s threads:
    the tokenizer's transient memory is bounded by one slice per worker,
    not by the source. The slices' triples concatenate in slice order, and
    doc ids derive from keys and ``write_segment`` sorts, so the segments
    depend on neither the slicing nor the threads. ``ids``: the table's
    doc ids (``_assign_ids``), sliced beside it; each slice hashes its own
    when None."""
    fn = make_triples_fn(cfg, completed_gkeys)
    bs = cfg.batch_size

    def run(i):
        return fn(table.slice(i, bs), None if ids is None else ids[i:i + bs])

    # one chunk: ``write_segments`` gathers each gkey's rows with ``take``,
    # which is far slower across chunks
    return pa.concat_tables(
        pool_map(run, list(range(0, max(table.num_rows, 1), bs)))
    ).combine_chunks()


def _write_group(index_dir, gkey, part: pa.Table, cfg: BuildConfig, gen) -> dict:
    """Write the segment of one gkey from its triples ``part``."""
    shard, bucket = divmod(gkey, cfg.n_buckets)
    if gen is None:
        m = write_segment(
            index_dir, shard, bucket, part,
            lineage={**cfg.lineage, "pipeline_version": PIPELINE_VERSION})
    else:
        from .update import write_segment_gen

        m = write_segment_gen(index_dir, shard, bucket, gen, part)
    return {"shard": shard, "bucket": bucket, "n_terms": m["n_terms"],
            "n_postings": m["n_postings"], "n_tokens": m["n_tokens"],
            "skipped": bool(m.get("skipped", False))}


# a whole CPU: only staged partitions reach this task (a driver-side table
# is written in-process), and one may hold up to _TARGET_GROUP_BYTES of
# text — fractional tasks would pack several into one CPU's memory, and
# they start cold (one worker process each)
@ray.remote(num_cpus=1)
def _write_segment_task(index_dir, gkey, path: str, cfg: BuildConfig, gen) -> dict:
    """Write the segment of one gkey from its staged parquet partition."""
    import pyarrow.parquet as pq

    return _write_group(index_dir, gkey, pq.read_table(path), cfg, gen)


def write_segments(
    triples, index_dir: str, cfg: BuildConfig, gen: int | None = None,
    on_staged=None,
) -> list[dict]:
    """THE triples → segment exchange (build, delta add and reshard): one
    dict per written segment (``shard, bucket, n_terms, n_postings,
    n_tokens, skipped``).

    ``triples`` carry ``gkey = shard * n_buckets + bucket``. A ``pa.Table``
    already on the driver (a source within the size rule) is split by gkey
    in memory and each gkey's segment is written in-process on
    ``pool_map``'s threads (each writer builds its segment in a scratch dir
    of its own and publishes it by rename). A ``ray.data.Dataset`` is
    hash-partitioned to ``<index>/_staging/gkey=*`` parquet — one
    streaming pass, no sort, no object-store materialization; past the
    object-store size a sort shuffle would spill raw Arrow at disk speed —
    and then ONE ``_write_segment_task`` per gkey writes its segment.
    Either way a base segment goes through ``write_segment`` (``gen=None``;
    segments already complete are skipped, which is what resume relies on)
    and delta generation ``gen`` through ``update.write_segment_gen``.
    ``write_segment`` sorts deterministically, so the segment bytes do not
    depend on how the triples arrived.

    ``on_staged`` is called once the staging write has returned (at once
    for a table). Staging is removed before and after use; a crash
    mid-staging just redoes it on retry (``fsck`` reports a leftover)."""
    import shutil

    staging = os.path.join(index_dir, STAGING)
    shutil.rmtree(staging, ignore_errors=True)
    try:
        if isinstance(triples, pa.Table):
            if on_staged is not None:
                on_staged()
            gkeys = column_numpy(triples["gkey"])
            order = np.argsort(gkeys, kind="stable")
            keys, starts = np.unique(gkeys[order], return_index=True)
            ends = np.append(starts[1:], len(order))

            def write(group):
                k, a, b = group
                return _write_group(index_dir, int(k), triples.take(order[a:b]),
                                    cfg, gen)

            rows = pool_map(write, list(zip(keys, starts, ends)))
        else:
            triples.write_parquet(staging, partition_cols=["gkey"])
            names = os.listdir(staging) if os.path.isdir(staging) else []
            parts = {int(n.split("=", 1)[1]): os.path.join(staging, n)
                     for n in names if n.startswith("gkey=")}
            if on_staged is not None:
                on_staged()
            rows = ray.get([_write_segment_task.remote(index_dir, g, parts[g], cfg, gen)
                            for g in sorted(parts)])
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return rows


@locked_on("index_dir")
def build_index(
    source: str | ray.data.Dataset,
    index_dir: str,
    cfg: BuildConfig | None = None,
    resume: bool = True,
) -> dict:
    """Build (or resume) the index. Returns the global stats dict.

    ``cfg.n_shards`` / ``cfg.n_buckets`` of None are auto-sized from the
    input's on-disk bytes and the cluster's CPU count; the chosen values are
    recorded in lineage (and, as always, in the build marker's stats —
    adds must reuse them)."""
    cfg = cfg or BuildConfig()
    from ..functions.tokenize import ANALYZERS

    if cfg.analyzer not in ANALYZERS:
        raise ValueError(
            f"unknown analyzer {cfg.analyzer!r} (known: {ANALYZERS})")
    prev = None
    if resume:
        # resume is crash recovery of the SAME build — a different analyzer
        # would silently mix token streams across segments. An index of
        # another PIPELINE_VERSION raises here (read_marker): rebuild it.
        try:
            prev = read_stats(index_dir)
        except FileNotFoundError:
            prev = None
        prev_an = None if prev is None else prev.get("analyzer", "plain")
        if prev_an is not None and prev_an != cfg.analyzer:
            raise ValueError(
                f"build_index(resume=True): index {index_dir!r} was built "
                f"with analyzer {prev_an!r}, requested {cfg.analyzer!r} — "
                "rebuild with resume=False")
    if cfg.n_shards is None or cfg.n_buckets is None:
        est = _estimate_input_bytes(source)
        s_auto, b_auto = auto_shards_buckets(est)
        cfg.n_shards = cfg.n_shards or s_auto
        cfg.n_buckets = cfg.n_buckets or b_auto
        cfg.lineage.setdefault(
            "auto_sized",
            {"input_bytes": est, "n_shards": cfg.n_shards, "n_buckets": cfg.n_buckets},
        )
    if not resume and os.path.isdir(index_dir) and nonlock_contents(index_dir):
        # full rebuild: a dirty target dir would otherwise contribute stale
        # segments (from an older corpus or a different shard/bucket config)
        # to query results with no error. Only wipe a dir that actually
        # LOOKS like an index — a misconfigured path (e.g. pointing at the
        # corpus) must never be silently and irrecoverably deleted.
        looks_like_index = (
            os.path.isdir(os.path.join(index_dir, "segments"))
            or os.path.isdir(os.path.join(index_dir, GLOBAL, "gens"))
            or os.path.isdir(os.path.join(index_dir, DOCS))
            or os.path.isdir(os.path.join(index_dir, DOCS + ".tmp"))
        )
        if not looks_like_index:
            raise ValueError(
                f"build_index(resume=False): refusing to delete {index_dir!r} — "
                "it is non-empty but has no index signature (segments/, "
                "_global/gens/ or _docs/). Point index_dir at a fresh or "
                "existing index directory, or remove it manually."
            )
        wipe_index_dir(index_dir)  # preserves the held write.lock file
    os.makedirs(index_dir, exist_ok=True)
    # a rebuild in place writes the same segment names again, so readers
    # key their cache on this build's id too; a resume keeps it
    if read_build_id(index_dir) is None:
        os.makedirs(os.path.join(index_dir, GLOBAL), exist_ok=True)
        with open(os.path.join(index_dir, GLOBAL, BUILD_ID), "w") as f:
            f.write(uuid.uuid4().hex)

    read_cols = list(
        dict.fromkeys(
            ([cfg.id_col] if cfg.id_col else list(cfg.key_cols))
            + list(cfg.meta_cols)
            + [cfg.text_col]
        )
    )
    cfg.lineage.setdefault(
        "input", source if isinstance(source, str) else "<dataset>")

    import shutil
    import threading

    docs_dir = os.path.join(index_dir, DOCS)
    if resume and os.path.isdir(docs_dir):
        cols = _docs_columns(docs_dir)
        if not all(c in cols for c in cfg.meta_cols):
            shutil.rmtree(docs_dir)  # a narrower-meta table
    docs_done = resume and os.path.isdir(docs_dir)

    def publish_docs(write) -> None:
        # pass 1 writes to a tmp dir + rename so a crash mid-write is never
        # mistaken for a completed pass on resume (the reference's
        # commit-after-publish ordering, IndexRecordsForV4.java:116-125)
        tmp = docs_dir + ".tmp"
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        write(tmp)
        if os.path.isdir(docs_dir):
            shutil.rmtree(docs_dir)
        os.replace(tmp, docs_dir)

    completed = (
        list_complete_segments(index_dir, positions=cfg.store_positions)
        if resume else set()
    )
    completed_gkeys = frozenset(s * cfg.n_buckets + b for s, b in completed)

    # Fast resume: a finished build commits marker g0000 LAST, its stats
    # stamped with (pipeline_version, layout, n_groups), so its presence
    # proves the prior build ran to completion. When the stamp matches this
    # config AND every stamped group is still complete on disk, skip the
    # triples pass entirely. Without this a no-op resume still streamed the
    # whole corpus through the tokenizer just to drop every group
    # pre-exchange (~5 s per resume check at 100k docs — paid by EVERY
    # query entry that re-verifies the shared index). Groups can be
    # empty-by-content (no term hashes into them), which is why "all shard
    # x bucket combos complete" is the wrong test — the stamp records how
    # many groups the finished build produced.
    prior_complete = prev is not None and (
        prev.get("n_shards") == cfg.n_shards
        and prev.get("n_buckets") == cfg.n_buckets
        and bool(prev.get("positions", False)) == cfg.store_positions
        and prev.get("analyzer", "plain") == cfg.analyzer
        and prev.get("n_groups") is not None
        and prev.get("n_groups") == len(completed)
    )
    if prior_complete and docs_done:
        # nothing to do: the committed markers stand as they are
        return {**prev, "n_segments_written": 0,
                "n_segments_skipped": len(completed)}
    if (table := read_small_source(source, read_cols)) is not None:
        # ---- small source: both passes on the driver, the doc table first;
        # the doc ids are hashed once for both
        ids = _assign_ids(table, cfg)
        if not docs_done:
            def write_doc_table(tmp):
                os.makedirs(tmp)
                write_table(make_doc_stats_fn(cfg)(table, ids),
                            os.path.join(tmp, "part-0.parquet"))

            publish_docs(write_doc_table)
        seg_rows = [] if prior_complete else write_segments(
            table_triples(table, cfg, completed_gkeys, ids), index_dir, cfg)
    else:
        # ---- pass 1 (doc table) + pass 2 (segments) run CONCURRENTLY ------
        # Two independent Dataset pipelines share the cluster; the streaming
        # executor interleaves them, so wall time ≈ max, not sum.
        docs = (ray.data.read_parquet(source, columns=read_cols)
                if isinstance(source, str) else source)

        def write_doc_table(tmp):
            docs.map_batches(make_doc_stats_fn(cfg), batch_format="pyarrow",
                             batch_size=cfg.batch_size).write_parquet(
                tmp, **PARQUET_CODEC)

        with batch_errors_as_raised(docs):
            if prior_complete:  # the doc table alone is missing
                publish_docs(write_doc_table)
                seg_rows = []
            else:
                pass1_error: list[BaseException] = []

                def run_pass1():
                    try:
                        if not docs_done:
                            publish_docs(write_doc_table)
                    except BaseException as e:  # surfaced after join
                        pass1_error.append(e)

                t1 = threading.Thread(target=run_pass1, daemon=True)
                triples = docs.map_batches(
                    make_triples_fn(cfg, completed_gkeys),
                    batch_format="pyarrow",
                    batch_size=cfg.batch_size,
                )
                # pass 1 starts AFTER the staging Dataset write: two concurrent
                # driver-side write_parquet constructions race on ray's lazy
                # fsspec-http probe (a failed import is never cached, so every
                # overlapping pair can see a partially initialized module and
                # die with "cannot import name HTTPFileSystem"). Pass 1 instead
                # overlaps the reduce phase (per-gkey segment tasks), which
                # never touches a Dataset datasink — same wall-clock shape.
                seg_rows = write_segments(triples, index_dir, cfg, on_staged=t1.start)
                t1.join()
                if pass1_error:
                    raise pass1_error[0]

    n_docs = _parquet_rows(docs_dir)
    # total token count = sum of per-segment token counters (manifest K7
    # analog) — no second tokenization pass needed
    total_len = sum(m["n_tokens"] for m in _all_manifests(index_dir))

    # ---- commit: term stats, then the build's marker -----------------------
    # g0000, written LAST, is the build-complete stamp; a build resumed over
    # a committed one (a segment lost since) commits the next generation
    markers = _committed_markers(index_dir)
    gen = max(markers, default=-1) + 1
    stats = {
        "n_docs": n_docs,
        "total_len": total_len,
        "avgdl": total_len / n_docs if n_docs else 0.0,
        "n_shards": cfg.n_shards,
        "n_buckets": cfg.n_buckets,
        # skipped = segments already complete before this run (their triples
        # were dropped pre-exchange, so they never reach the writer)
        "n_segments_written": sum(not r["skipped"] for r in seg_rows),
        "n_segments_skipped": len(completed) + sum(r["skipped"] for r in seg_rows),
        "n_postings": sum(
            m["n_postings"] for m in _all_manifests(index_dir)
        ),
        "positions": cfg.store_positions,
        "analyzer": cfg.analyzer,
        # build-complete stamp for the fast-resume check: the number of
        # segment groups this finished build left complete on disk
        "n_groups": len(
            list_complete_segments(index_dir, positions=cfg.store_positions)
        ),
        "pipeline_version": PIPELINE_VERSION,
    }
    from .update import _commit_gen

    _commit_gen(index_dir, gen, {"stats": stats, "termstats": _seal_termstats(
        index_dir, {**markers, gen: {}})})
    return stats


def _all_manifests(index_dir: str) -> list[dict]:
    import glob

    out = []
    for p in sorted(glob.glob(os.path.join(index_dir, "segments", "s*_b*", "manifest.json"))):
        with open(p) as f:
            out.append(json.load(f))
    return out


# a seal aggregates on the driver while the segment columns it reads
# decode to fewer bytes than this (``_seal_read_bytes``: footer sizes, so
# the bound is on driver memory whatever the files' codec)
_SEAL_DRIVER_MAX_BYTES = 256 * 1024 * 1024


def _seal_read_bytes(seg_dirs: list[str]) -> int:
    """Decoded bytes of the columns a seal reads of ``seg_dirs``
    (``segment_term_stats``): the term tables whole, and the block
    tables' max_tf and min_dl."""
    return (parquet_decoded_bytes(
        [os.path.join(d, "terms.parquet") for d in seg_dirs],
        ("term", *TERM_COLUMNS))
        + parquet_decoded_bytes(
            [os.path.join(d, "blocks.parquet") for d in seg_dirs],
            ("max_tf", "min_dl")))


def _term_rows(seg_dirs: list[str]) -> dict[int, pa.Table]:
    """term bucket -> the term stats of its segments
    (``segment_term_stats``); a segment's bucket is read off its dir name
    (a term dictionary stores no constant columns)."""
    parts: dict[int, list[pa.Table]] = {}
    for d in seg_dirs:
        parts.setdefault(segment_bucket(d), []).append(segment_term_stats(d))
    return {b: pa.concat_tables(ts) for b, ts in parts.items()}


def _bucket_term_rows(batch: pa.Table) -> pa.Table:
    """The Ray seal's map: a batch of segment dirs (``item``) -> their
    term stats, each row with its term ``bucket``."""
    parts = []
    for d in batch["item"].to_pylist():
        rows = segment_term_stats(d)
        parts.append(rows.append_column("bucket", pa.array(
            np.full(rows.num_rows, segment_bucket(d), np.int64))))
    return pa.concat_tables(parts)


def _write_termstats_bucket(rows: pa.Table, bdir: str) -> None:
    """Aggregate one term bucket's per-segment term rows into global
    per-term stats (df/cf sums, max_tf max, min_dl min) and write them
    term-sorted as ``bdir/part-0.parquet``. Sum/max/min compose, so rows
    that are themselves aggregates (a prior seal) fold in exactly."""
    agg = rows.group_by("term").aggregate(
        [("df", "sum"), ("cf", "sum"), ("max_tf", "max"), ("min_dl", "min")])
    out = pa.table({"term": agg["term"], "df": agg["df_sum"],
                    "cf": agg["cf_sum"], "max_tf": agg["max_tf_max"],
                    "min_dl": agg["min_dl_min"]}).sort_by("term")
    os.makedirs(bdir, exist_ok=True)
    write_table(out, os.path.join(bdir, "part-0.parquet"), ENGINE_CODEC)


def _write_bucket_group(out_dir: str, rows: pa.Table) -> pa.Table:
    """The Ray seal's reduce: one term bucket's rows (``bucket`` column
    constant) written as the driver seal writes them."""
    bucket = rows["bucket"][0].as_py()
    _write_termstats_bucket(rows.drop_columns(["bucket"]),
                            os.path.join(out_dir, f"bucket={bucket}"))
    return pa.table({"bucket": [bucket]})


def _seal_termstats(index_dir: str, markers: dict[int, dict]) -> str:
    """Aggregate the term stats of the segments live under ``markers``
    (the commit's own marker included) into global per-term stats,
    written as a fresh version ``_global/termstats-<id>/bucket=N``.
    Returns the version's name, which the commit's marker names: no
    reader sees the version before that marker lands.

    Vocab-sized, not corpus-sized. Two paths with identical output files
    (``_write_termstats_bucket`` per term bucket):
    - small vocab (the columns read decode to < 256 MB): one Arrow
      ``group_by`` per term bucket on the driver — the Ray groupby's fixed
      cost would dominate;
    - large vocab (unbounded identifier space at code-corpus scale): a
      Ray Data map over the segment dirs, then a groupby shuffle on the
      term bucket, each bucket aggregated and written by one task.
    """
    seg_dirs = sorted(
        os.path.join(index_dir, "segments", name)
        for names in live_segments(index_dir, markers).values()
        for name in names
    )
    name = f"termstats-{uuid.uuid4().hex[:8]}"
    tmp = os.path.join(index_dir, GLOBAL, name)
    os.makedirs(tmp)
    if _seal_read_bytes(seg_dirs) < _SEAL_DRIVER_MAX_BYTES:
        for bucket, rows in _term_rows(seg_dirs).items():
            _write_termstats_bucket(rows, os.path.join(tmp, f"bucket={bucket}"))
    else:
        (ray.data.from_items(seg_dirs)
            .map_batches(_bucket_term_rows, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(functools.partial(_write_bucket_group, tmp),
                        batch_format="pyarrow")
            .materialize())
    return name


def _seal_termstats_incremental(index_dir: str, gen: int,
                                markers: dict[int, dict]) -> str | None:
    """Delta-sized seal after ``add_documents``: merge generation ``gen``'s
    term stats into the version its predecessor's marker (the newest of
    ``markers`` below ``gen``) names, instead of re-aggregating every live
    segment's term file. Exact by construction — df/cf are sums and
    max_tf/min_dl are max/min, so combine(prev_agg, delta) equals the full
    aggregation, bucket by bucket (the full-reseal parity test pins this).
    Returns the new version's name, or None (caller must full-reseal) when
    the predecessor's version is missing or past the driver-path size bound
    (the Ray groupby path owns that regime; at 10^9 terms a distributed
    incremental merge would be the next step, and the full path is already
    distributed).
    """
    import glob as _glob
    import shutil as _shutil

    import pyarrow.parquet as pq

    prev = max(g for g in markers if g != gen)
    cur = os.path.join(index_dir, GLOBAL, markers[prev].get("termstats", ""))
    if not markers[prev].get("termstats") or not os.path.isdir(cur):
        return None
    if parquet_decoded_bytes(_glob.glob(os.path.join(
            cur, "bucket=*", "*.parquet"))) >= _SEAL_DRIVER_MAX_BYTES:
        return None
    delta_dirs = sorted(
        _glob.glob(os.path.join(index_dir, "segments", f"*_g{gen:04d}")))
    if not delta_dirs:  # a generation without terms: df is unchanged
        return markers[prev]["termstats"]
    delta_by_bucket = _term_rows(delta_dirs)
    name = f"termstats-{uuid.uuid4().hex[:8]}"
    tmp = os.path.join(index_dir, GLOBAL, name)
    os.makedirs(tmp)
    for bdir in sorted(_glob.glob(os.path.join(cur, "bucket=*"))):
        b = int(os.path.basename(bdir).split("=", 1)[1])
        out_bdir = os.path.join(tmp, f"bucket={b}")
        sub = delta_by_bucket.pop(b, None)
        if sub is None:
            _shutil.copytree(bdir, out_bdir)  # untouched bucket rides along
            continue
        prev_rows = pq.read_table(bdir, columns=list(TERMSTATS_COLUMNS))
        _write_termstats_bucket(
            pa.concat_tables([prev_rows, sub], promote_options="permissive"),
            out_bdir)
    for b, sub in delta_by_bucket.items():  # buckets new to the vocabulary
        _write_termstats_bucket(sub, os.path.join(tmp, f"bucket={b}"))
    return name


def _reap_termstats(index_dir: str) -> None:
    """The reap rule: remove every term-stats version that neither of the
    two newest markers names — superseded versions and a crashed commit's
    unnamed one. A version is renamed away (``.reap-<id>``) before it is
    removed, so it vanishes whole: a reader pinned at an older marker finds
    its version gone, never some of its buckets, and reopens at the newest
    (``query._StaleIndexRead``). A reap that crashed leaves a ``.reap-*``
    dir no reader opens; the next reap removes it."""
    import shutil

    from .segments import committed_gens, marker_path

    keep = set()
    for g in sorted(committed_gens(index_dir))[-2:]:
        with open(marker_path(index_dir, g)) as f:
            keep.add(json.load(f).get("termstats"))
    root = os.path.join(index_dir, GLOBAL)
    for name in os.listdir(root):
        path = os.path.join(root, name)
        if name.startswith("termstats-") and name not in keep:
            gone = os.path.join(root, f".reap-{uuid.uuid4().hex[:8]}")
            os.rename(path, gone)
            shutil.rmtree(gone, ignore_errors=True)
        elif name.startswith(".reap-"):
            shutil.rmtree(path, ignore_errors=True)
