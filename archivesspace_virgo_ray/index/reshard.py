"""Reshard: rewrite an index into a new (n_shards, n_buckets) layout by
streaming POSTINGS, never the corpus.

Growing a cluster (or fixing a mis-sized layout) must not cost a full
rebuild: at 100 TB the dominant build cost is reading + tokenizing the
corpus, while the index itself is ~an order of magnitude smaller. Reshard
decodes each existing segment back into its (term, doc_id, tf, dl[, pos])
triples — one Ray task per segment — recomputes the new gkey exactly the
way the build does (``doc_id % n_shards``, ``stable_hash(term) %
n_buckets``, ``build.make_triples_fn``), and feeds the build's own
``build.write_segments`` exchange. Because ``write_segment`` is
deterministic over its triple set and the position codec is canonical
(re-encode(decode(bytes)) == bytes), the resharded index is BYTE-IDENTICAL
to a fresh build at the target layout — tested, not assumed.

Scope: one live segment per (shard, bucket) and no tombstones. An index
with live delta generations or pending deletes/replaces must be merged
and vacuumed first (``maintain(dead_ratio=0)``: ``merge_segments`` folds
every generation into one segment per pair, ``vacuum_docs`` drops the dead
forward-table rows); reshard refuses otherwise rather than silently
dropping updates or resurrecting deleted docs.

Reference parity: the reference re-posts every document through Solr to
change its collection layout (SolrHelper.java posts doc-by-doc); this is
the index-level equivalent that skips the document pipeline entirely.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.tokenize import stable_hash_strings
from .build import BuildConfig, _all_manifests, _seal_termstats, write_segments
from .postings import decode_segment, position_bytes_array
from .segments import (
    DOCS,
    PARQUET_CODEC,
    SEGMENTS,
    _parquet_rows,
    list_complete_segments,
    live_segments,
    open_segment,
    read_stats,
)
from .locking import locked_on, nonlock_contents
from .update import (
    _commit_gen,
    _committed_markers,
    committed_gens,
    extra_rows,
    load_tombstone_thresholds,
)


def segment_to_triples(
    src_dir: str,
    name: str,
    n_shards: int,
    n_buckets: int,
    positions: bool,
) -> pa.Table:
    """Decode source segment ``name`` into triples keyed by the TARGET
    layout.

    One whole-segment decode (postings.decode_segment); term/bucket hashes
    are computed once per unique term and gathered by term row — never
    per posting, and no posting's term is a Python string.
    """
    r = open_segment(src_dir, name)
    doc_ids, tfs, dls, dfs, pos = decode_segment(r)
    bucket_u = (stable_hash_strings(r.terms["term"].to_pylist())
                % np.uint64(n_buckets)).astype(np.int64)
    rows = np.repeat(np.arange(len(dfs), dtype=np.int64), dfs)
    gkey = ((doc_ids % n_shards) * n_buckets + bucket_u[rows]).astype(np.int32)
    return pa.table({
        "term": r.terms["term"].take(pa.array(rows)),
        "doc_id": pa.array(doc_ids),
        "tf": pa.array(tfs.astype(np.int32)),
        "dl": pa.array(dls.astype(np.int32)),
        **({"pos": position_bytes_array(tfs, pos)} if positions else {}),
        "gkey": pa.array(gkey),
    })


@locked_on("dst_dir")
def reshard_index(
    src_dir: str, dst_dir: str, n_shards: int, n_buckets: int,
    resume: bool = False,
) -> dict:
    """Rewrite ``src_dir`` into ``dst_dir`` at (n_shards, n_buckets).

    ``resume=True`` continues into a partially-written ``dst_dir`` from a
    crashed run: complete target segments are skipped by ``write_segment``'s
    manifest check (their triples still decode and stage — the reshard
    input is the index, not the corpus, so the re-decode is cheap), and the
    ``_docs`` rewrite is tmp+rename idempotent. The result is byte-identical
    to an uninterrupted run.

    Returns the new stats dict (same shape as ``build_index``'s)."""
    if os.path.abspath(src_dir) == os.path.abspath(dst_dir):
        raise ValueError("reshard_index: src and dst must differ (the source "
                         "stays readable until the new layout is sealed)")
    markers = _committed_markers(src_dir)
    stats = markers[max(markers)]["stats"]
    if resume and committed_gens(dst_dir):  # its marker landed: complete
        return read_stats(dst_dir)
    tomb_ids, _ = load_tombstone_thresholds(src_dir, markers)
    live = live_segments(src_dir, markers)
    if len(tomb_ids) or any(len(names) > 1 for names in live.values()):
        raise ValueError(
            "reshard_index: source has delta generations or tombstones — "
            "run maintain(dead_ratio=0) (merge_segments, then vacuum_docs) "
            "first so each pair holds one live segment")
    positions = bool(stats.get("positions", False))
    complete = list_complete_segments(src_dir, positions)
    segs = sorted(names[0] for key, names in live.items() if key in complete)
    if not segs:
        raise ValueError(f"reshard_index: no complete segments in {src_dir!r}")

    if not resume and os.path.isdir(dst_dir) and nonlock_contents(dst_dir):
        raise ValueError(f"reshard_index: {dst_dir!r} is not empty "
                         "(pass resume=True to continue a crashed reshard)")
    os.makedirs(dst_dir, exist_ok=True)

    # ---- postings: one decode task per source segment -> one gkey exchange -
    def emit(batch: pa.Table):
        for name in batch["name"].to_pylist():
            yield segment_to_triples(
                src_dir, name, n_shards, n_buckets, positions)

    src_items = ray.data.from_items([{"name": n} for n in segs])
    triples = src_items.map_batches(emit, batch_format="pyarrow", batch_size=1)
    cfg = BuildConfig(
        n_shards=n_shards, n_buckets=n_buckets, store_positions=positions,
        lineage={"reshard_from": src_dir,
                 "src_layout": [stats["n_shards"], stats["n_buckets"]]},
    )
    seg_rows = write_segments(triples, dst_dir, cfg)

    # ---- forward doc table: only the routing column changes ----------------
    def redoc(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        return t.set_column(
            t.schema.get_field_index("shard"), "shard",
            pa.array((ids % n_shards).astype(np.int32)))

    docs_dst = os.path.join(dst_dir, DOCS)
    docs_tmp = docs_dst + ".tmp"
    # Resume-safe: the rename below is atomic, so an existing _docs IS a
    # completed rewrite — skip it (a crash between the rename and the
    # marker would otherwise hit os.replace onto a non-empty dir).
    # A crash DURING the write leaves partial files in _docs.tmp; rmtree
    # first so the re-run's write_parquet can't add UUID-named files next
    # to them and silently duplicate rows.
    if not os.path.isdir(docs_dst):
        shutil.rmtree(docs_tmp, ignore_errors=True)
        ray.data.read_parquet(os.path.join(src_dir, DOCS)).map_batches(
            redoc, batch_format="pyarrow").write_parquet(
                docs_tmp, **PARQUET_CODEC)
        os.replace(docs_tmp, docs_dst)

    # ---- commit (the stats build_index writes), its marker LAST ------------
    # The forward table keeps each row's generation and every row: the
    # marker takes the source's newest generation, so the next commit to
    # the new index takes a higher one, and carries the source's extra rows
    # (an update_fields row beside the row it updates), so the stats'
    # identity holds on the new index
    gen = max(markers)
    extras = extra_rows(markers)
    # the live docs: the source holds no tombstones, so no dead ones
    n_docs = _parquet_rows(os.path.join(dst_dir, DOCS)) - extras
    total_len = sum(m["n_tokens"] for m in _all_manifests(dst_dir))
    out = {
        "n_docs": n_docs,
        "total_len": total_len,
        "avgdl": total_len / n_docs if n_docs else 0.0,
        "n_shards": n_shards,
        "n_buckets": n_buckets,
        "n_segments_written": sum(not r["skipped"] for r in seg_rows),
        "n_segments_skipped": sum(r["skipped"] for r in seg_rows),
        "n_postings": sum(m["n_postings"] for m in _all_manifests(dst_dir)),
        "positions": positions,
        "analyzer": stats.get("analyzer", "plain"),
        "n_groups": len(list_complete_segments(dst_dir, positions=positions)),
        "pipeline_version": stats["pipeline_version"],
    }
    info = {"n_docs": 0, "n_tokens": 0, "replaces": [], "extra_rows": extras}
    _commit_gen(dst_dir, gen, {**info, "stats": out,
                               "termstats": _seal_termstats(dst_dir, {gen: info})})
    return out


def _live_files(index_dir: str) -> dict[tuple[int, int], list[dict]]:
    """(shard, bucket) -> per live segment (generation order) its files'
    bytes, manifest excluded."""
    out = {}
    for key, names in live_segments(index_dir).items():
        dirs = [Path(index_dir, SEGMENTS, n) for n in names]
        out[key] = [{f.name: f.read_bytes() for f in d.iterdir()
                     if f.name != "manifest.json"} for d in dirs]
    return out


def segments_equal(a: str, b: str) -> bool:
    """Byte-compare the live segments of two indexes pair by pair: every
    (shard, bucket) must hold the same files with the same bytes. Segment
    names and manifests are excluded — a compaction names its output by
    its generation, and lineage differs by construction."""
    return _live_files(a) == _live_files(b)
