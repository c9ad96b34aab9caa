"""Segment store: atomic segment writes, manifests, lineage, resume.

Index layout on disk (partitioned so a failed run skips finished work — the
Ray analog of the reference's idempotent per-ref output files + hash-gated
full-reindex, SolrHelper.java:98-100, IndexRecordsForV4.java:44-69,116-125):

    index_dir/
      segments/s{shard:04d}_b{bucket:04d}[_g{gen:04d}]/
                           # a build writes the base (generation 0); an add
                           #   or a compaction writes generation gen,
                           #   visible once _global/gens/g{gen}.json commits
        terms.parquet      # term-ordered dictionary: term (front-coded),
                           #   df, cf; nothing a reader can derive
        blocks.parquet     # block-max skip table, concatenated in term order:
                           #   last_ord, max_tf, min_dl, ord_bits (uint8)
                           #   (+ pos_bytes per block when positional); the
                           #   one copy of the impacts: a term's max_tf and
                           #   min_dl are its blocks' max and min
        docs.bin           # doc table: ordinal -> doc_id, ordinal -> dl
                           #   (varbyte; one entry per doc of the segment)
        postings.bin       # per term: its blocks' ordinal gaps, then their
                           #   tf - 1s, each block's run bit-packed at one
                           #   width; 7 zero bytes close the file
        positions.bin      # optional per-posting token positions stream
                           #   (store_positions=True)
        manifest.json      # lineage + counters + pipeline_version + status
      _docs/               # forward doc table: doc_id, dl, sha256, meta cols
      _staging/gkey=N/     # transient triples exchange (build.write_segments);
                           #   removed after use, fsck reports a leftover
      _global/
        gens/g{gen:04d}.json  # commit markers, one per commit, written once
                           #   (update._commit_gen; g0000 = the build): the
                           #   commit's stats (N, total_len, avgdl, n_shards,
                           #   n_buckets, version, ...), the term-stats
                           #   version it names, and what it changed (folds,
                           #   replaces, a delete's tombstones, ...)
        termstats-<id>/bucket=N  # global per-term df/cf/max_tf/min_dl,
                           #   term-sorted and front-coded; a version is
                           #   written before the marker naming it, and
                           #   reaped once neither of the two newest
                           #   markers names it
        build_id           # this build's id (read_build_id)

A reader pins ONE marker (the newest, or ``at=``) and takes its whole
state from it: ``read_stats``, ``termstats_dir``, and the segments and
tombstones of the markers up to it (``live_segments``,
``load_tombstone_thresholds``). An index of an older PIPELINE_VERSION kept
its commit state elsewhere: opening it raises, naming the version.

Posting format v4 (``postings`` module docstring) stores no offsets: a
``SegmentReader`` derives each term's blocks, payload and position offsets
and every block's posting count, tf width and run offsets from the dfs and
the blocks' ``max_tf`` and ``ord_bits`` with a few prefix sums at open
(``postings.term_layout``), and each term's max_tf and min_dl with one
``reduceat`` each over its blocks (``postings.term_bounds``; the seals
read them the same way, ``segment_term_stats``). It refuses a segment
whose tables do not fit its files (``fsck`` names which check failed).

Every parquet file is zstd without dictionary pages or column statistics
(``PARQUET_CODEC``); the engine-owned tables (term, block and term-stats
tables) also front-code their sorted ``term`` column and embed no Arrow
schema (``ENGINE_CODEC``), while ``_docs`` keeps its schema for the
caller's meta column types. Since ``avr-index-11`` nothing a reader can
derive or never reads is stored.

A segment is visible only once its manifest says ``complete`` and carries the
current PIPELINE_VERSION — the write is tmp-dir + ``os.replace`` (manifest
written before the rename, so a crash never leaves a half segment visible).

Doc sharding doubles as the head-term salting (north_rule): a head term's
postings are split across the ``n_shards`` doc shards, so no single reducer
ever materializes a corpus-sized posting list; each (shard, bucket) group is
bounded by shard_size × bucket_share.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import PIPELINE_VERSION
from ..functions.tokenize import value_offsets
from .postings import (
    BLOCK_LAYOUT,
    TAIL,
    TERM_COLUMNS,
    _block_sums,
    _starts,
    block_firsts,
    decode_doc_table,
    encode_segment,
    packed_view,
    term_bounds,
    term_layout,
)

SEGMENTS = "segments"
GLOBAL = "_global"
BUILD_ID = "build_id"  # in GLOBAL: written by build_index (see read_build_id)
DOCS = "_docs"
STAGING = "_staging"  # build.write_segments' exchange (transient)

# The codec of every parquet file an index keeps (segment term and block
# tables, _docs, term stats), on the driver path (``write_table``) and in
# every Ray Data ``write_parquet(..., **PARQUET_CODEC)``. zstd, and no
# dictionary pages: term, doc_id and sha256 hold distinct values, where a
# dictionary only costs bytes. No column statistics: nothing prunes on
# them (``_docs`` files mix every shard and doc ids are hashes; term,
# block and term-stats tables are read whole). Readers decode any codec,
# so files written under another one stay readable and decode to equal
# tables.
PARQUET_CODEC = {"compression": "zstd", "use_dictionary": False,
                 "write_statistics": False}
# The variant of the tables the engine owns (segment term and block
# tables, term stats): their ``term`` column is sorted, so it is
# front-coded (DELTA_BYTE_ARRAY), and they embed no Arrow schema, since
# every type they hold round-trips from Parquet's own logical types
# (``ord_bits`` uint8 included). ``_docs`` keeps its schema: its caller
# meta columns may hold types Parquet alone does not restore (a
# timestamp's zone, large_string).
ENGINE_CODEC = {**PARQUET_CODEC, "store_schema": False,
                "column_encoding": {"term": "DELTA_BYTE_ARRAY"}}


def write_table(table: pa.Table, path: str, codec: dict = PARQUET_CODEC
                ) -> None:
    """Write ``table`` as the parquet file ``path`` in the index codec
    (``ENGINE_CODEC`` for an engine-owned table)."""
    pq.write_table(table, path, **codec)


# Arrow type name -> numpy dtype of the fixed-width columns column_numpy reads
_NUMPY_DTYPES = {**{t: t for t in ("int8", "int16", "int32", "int64", "uint8",
                                   "uint16", "uint32", "uint64")},
                 "float": "float32", "double": "float64"}


def column_numpy(col) -> np.ndarray:
    """A null-free integer or float Arrow (chunked) array as numpy, read
    from its data buffers. Arrow's own ``to_numpy``/``pa.array`` load
    pyarrow's pandas shim, which imports pandas: a query worker reads and
    answers through these two helpers so it never pays that import."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    dtype = _NUMPY_DTYPES.get(str(col.type))
    if dtype is None or any(c.null_count for c in chunks):
        return col.to_numpy(zero_copy_only=False)
    dtype = np.dtype(dtype)
    parts = [np.frombuffer(c.buffers()[1], dtype, count=len(c),
                           offset=c.offset * dtype.itemsize)
             for c in chunks if len(c)]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def column_strings(col) -> list[str]:
    """An Arrow (chunked) string array as Python strs, read from its
    offsets and data buffers: a third of ``to_pylist``'s time on a
    segment's term column, and like ``column_numpy`` it loads no pandas.
    An all-ASCII chunk decodes once and is sliced as a str; a chunk with
    nulls goes through ``to_pylist``."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out: list[str] = []
    for c in chunks:
        if c.null_count:
            out.extend(c.to_pylist())
            continue
        offs = value_offsets(c)
        bounds = (offs - offs[0]).tolist()
        data = bytes(memoryview(c.buffers()[2] or b"")[offs[0]:offs[-1]])
        text = data.decode("utf-8")
        if len(text) == len(data):
            out.extend(text[a:b] for a, b in zip(bounds, bounds[1:]))
        else:  # multi-byte characters: slice the bytes
            out.extend(data[a:b].decode("utf-8")
                       for a, b in zip(bounds, bounds[1:]))
    return out


def numpy_table(cols: dict[str, np.ndarray]) -> pa.Table:
    """Arrow table of fixed-width numeric numpy columns, zero-copy (see
    ``column_numpy``)."""
    return pa.Table.from_arrays(
        [pa.Array.from_buffers(pa.from_numpy_dtype(v.dtype), len(v),
                               [None, pa.py_buffer(np.ascontiguousarray(v))])
         for v in cols.values()],
        names=list(cols))


def segment_name(shard: int, bucket: int) -> str:
    return f"s{shard:04d}_b{bucket:04d}"


def segment_dir(index_dir: str, shard: int, bucket: int) -> str:
    return os.path.join(index_dir, SEGMENTS, segment_name(shard, bucket))


def segment_is_complete(
    index_dir: str, name: str, positions: bool | None = None
) -> bool:
    """Whether segment dir ``name`` holds a complete manifest of this
    ``PIPELINE_VERSION``. ``positions``: when given, a segment only counts
    as complete if its manifest's positions flag matches — a resume with a
    different ``store_positions`` config must rebuild rather than silently
    mix positional and non-positional segments."""
    try:
        m = read_manifest(index_dir, name)
        ok = m.get("status") == "complete" and m.get("pipeline_version") == PIPELINE_VERSION
        if ok and positions is not None:
            ok = bool(m.get("positions", False)) == bool(positions)
        return ok
    except (OSError, json.JSONDecodeError):
        return False


def list_complete_segments(
    index_dir: str, positions: bool | None = None
) -> set[tuple[int, int]]:
    """(shard, bucket) of every pair whose live segments are all complete."""
    return {key for key, names in live_segments(index_dir).items()
            if all(segment_is_complete(index_dir, n, positions) for n in names)}


def write_segment(
    index_dir: str,
    shard: int,
    bucket: int,
    triples: pa.Table,
    lineage: dict | None = None,
    extras: dict | None = None,
) -> dict:
    """Build + atomically publish one segment from its (term, doc_id, tf,
    dl[, pos]) triples table. Deterministic: terms sorted ascending,
    postings doc_id-ascending, so the same triple set yields byte-identical
    files regardless of upstream partitioning (resume test relies on this).

    Returns the manifest dict (also written to disk, with ``extras``
    stamped in).
    """
    has_pos = "pos" in triples.column_names
    if segment_is_complete(index_dir, segment_name(shard, bucket),
                           positions=has_pos):
        return {**read_manifest(index_dir, segment_name(shard, bucket)),
                "skipped": True}

    import pyarrow.compute as pc

    # (term, doc_id) order by vocabulary rank: dictionary-encode the terms,
    # rank the dictionary (byte order = code point order), then one lexsort
    # of integers — only the distinct terms are ever compared as strings
    enc = pc.dictionary_encode(triples["term"].combine_chunks())
    term_order = pc.sort_indices(enc.dictionary)
    by_term = column_numpy(term_order)
    rank = np.empty(len(by_term), np.int64)
    rank[by_term] = np.arange(len(by_term))
    codes = rank[column_numpy(enc.indices)]
    doc_ids = column_numpy(triples["doc_id"]).astype(np.int64)
    order = np.lexsort((doc_ids, codes))
    codes = codes[order]
    doc_ids = doc_ids[order]
    tfs = column_numpy(triples["tf"]).astype(np.int64)[order]
    dls = column_numpy(triples["dl"]).astype(np.int64)[order]

    # term boundaries
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(first)
    ends = np.concatenate([starts[1:], [len(codes)]])

    payload, doc_table, n_docs, term_cols, block_cols = encode_segment(
        doc_ids, tfs, dls, starts, ends)
    if has_pos:
        # optional positions: per-posting pre-encoded delta+varbyte bytes
        # (tokenize.batch_term_codes) — the writer only reorders and
        # concatenates them, never re-encodes; per-block byte counts from
        # reduceat over the block boundaries (a term's run is the sum of
        # its blocks', see postings.term_layout)
        pos = pc.take(triples["pos"], order).combine_chunks()
        offsets = value_offsets(pos)
        pos_lens = np.diff(offsets).astype(np.int64)
        pos_payload = (np.frombuffer(pos.buffers()[2], np.uint8)[offsets[0]:offsets[-1]]
                       if len(pos) else b"")
        block_cols["pos_bytes"] = (
            np.add.reduceat(pos_lens, block_firsts(starts, ends))
            if len(pos_lens) else np.empty(0, np.int64))

    n_terms = len(by_term)
    terms_tbl = pa.table({"term": enc.dictionary.take(term_order).cast(pa.string()),
                          **{k: pa.array(v) for k, v in term_cols.items()}})
    blocks_tbl = pa.table({k: pa.array(v) for k, v in block_cols.items()})

    final_dir = segment_dir(index_dir, shard, bucket)
    tmp_dir = os.path.join(
        index_dir, SEGMENTS, f".tmp-{segment_name(shard, bucket)}-{uuid.uuid4().hex[:8]}"
    )
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        write_table(terms_tbl, os.path.join(tmp_dir, "terms.parquet"),
                    ENGINE_CODEC)
        write_table(blocks_tbl, os.path.join(tmp_dir, "blocks.parquet"),
                    ENGINE_CODEC)
        with open(os.path.join(tmp_dir, "docs.bin"), "wb") as f:
            f.write(doc_table)
        with open(os.path.join(tmp_dir, "postings.bin"), "wb") as f:
            f.write(payload)
        if has_pos:
            with open(os.path.join(tmp_dir, "positions.bin"), "wb") as f:
                f.write(pos_payload)
        manifest = {
            "shard": shard,
            "bucket": bucket,
            "status": "complete",
            "pipeline_version": PIPELINE_VERSION,
            "n_terms": int(n_terms),
            "n_postings": int(len(doc_ids)),
            "n_docs": int(n_docs),
            "docs_bytes": len(doc_table),
            "n_tokens": int(tfs.sum()) if len(tfs) else 0,
            "payload_bytes": len(payload),
            "positions": bool(has_pos),
            "positions_bytes": len(pos_payload) if has_pos else 0,
            "lineage": lineage or {},
            **(extras or {}),
        }
        with open(os.path.join(tmp_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        os.makedirs(os.path.dirname(final_dir), exist_ok=True)
        if os.path.isdir(final_dir):
            shutil.rmtree(final_dir)  # stale / version-mismatched segment
        os.replace(tmp_dir, final_dir)
    finally:
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir, ignore_errors=True)
    return manifest


class SegmentReader:
    """Read-side view of one segment: term dict and doc table in memory,
    postings mmapped.

    Accepts either (index_dir, shard, bucket) for a base segment or
    (index_dir, name=...) for any segment directory (delta generations).
    Raises ValueError for a segment written under another
    ``PIPELINE_VERSION``: its posting layout may differ.

    A segment dir is written once under a name no other version ever
    takes, and every file is opened through ONE directory fd: a
    compaction reaping the dir between two opens makes the reader raise
    FileNotFoundError, never read a half-deleted one. ``manifest`` is the
    manifest read, and ``mask_gen`` its mask generation (see
    ``segment_mask_gen``)."""

    def __init__(
        self,
        index_dir: str,
        shard: int | None = None,
        bucket: int | None = None,
        name: str | None = None,
    ):
        self.name = name if name is not None else segment_name(shard, bucket)
        d = os.path.join(index_dir, SEGMENTS, self.name)
        dir_fd = os.open(d, os.O_RDONLY | os.O_DIRECTORY)
        try:
            self._open_files(d, functools.partial(os.open, dir_fd=dir_fd))
        finally:
            os.close(dir_fd)

    def _open_files(self, d: str, opener) -> None:
        def read(fname: str):
            return open(fname, "rb", opener=opener)

        with read("manifest.json") as f:
            m = json.load(f)
        if m.get("pipeline_version") != PIPELINE_VERSION:
            raise ValueError(
                f"segment {d} has pipeline_version "
                f"{m.get('pipeline_version')!r}, this code reads "
                f"{PIPELINE_VERSION!r}: rebuild the index")
        self.manifest = m
        self.mask_gen = _mask_gen_of(self.name, m)
        with read("docs.bin") as f:
            self.doc_map, self.dl_map = decode_doc_table(f.read(), m["n_docs"])
        # ParquetFile.read, not read_table: read_table loads pyarrow.dataset,
        # which imports pandas (see column_numpy)
        with read("terms.parquet") as f:
            self.terms = pq.ParquetFile(f).read()
        with read("blocks.parquet") as f:
            btab = pq.ParquetFile(f).read()
        self.blocks = {name: column_numpy(btab[name])
                       for name in btab.column_names}
        with read("postings.bin") as f:
            self.payload = _mmap_or_empty(f)
        try:
            with read("positions.bin") as f:
                self.pos_payload = _mmap_or_empty(f)
            self.has_positions = "pos_bytes" in self.blocks
        except FileNotFoundError:
            self.has_positions = False
            self.pos_payload = np.empty(0, np.uint8)
        t = self.terms
        self._lookup = dict(zip(column_strings(t["term"]), range(t.num_rows)))
        # per-term numpy columns (row order of ``terms``): the stored ones
        # plus what the block table gives (postings.term_layout,
        # term_bounds); the blocks' posting counts, tf widths and run
        # offsets join the block columns
        cols = {name: column_numpy(t[name]) for name in TERM_COLUMNS}
        layout = term_layout(cols["df"], self.blocks["max_tf"],
                             self.blocks["ord_bits"])
        cols["max_tf"], cols["min_dl"] = term_bounds(
            cols["df"], self.blocks["max_tf"], self.blocks["min_dl"])
        for name in BLOCK_LAYOUT:
            self.blocks[name] = layout.pop(name)
        last = self.blocks["last_ord"]
        if (int(layout["payload_len"].sum()) + TAIL != len(self.payload)
                or (len(last) and not 0 <= last.min() <= last.max() < m["n_docs"])):
            raise ValueError(f"segment {d}: its term and block tables do not "
                             "fit its postings.bin and docs.bin (fsck names it)")
        self.words = packed_view(self.payload)
        self.term_cols = {**cols, **layout}
        if self.has_positions:
            bs = layout["block_start"]
            pos_len = _block_sums(self.blocks["pos_bytes"], bs,
                                  bs + layout["n_blocks"])
            self.term_cols["pos_off"] = _starts(pos_len)
            self.term_cols["pos_len"] = pos_len

    def term_row(self, term: str) -> int | None:
        """``term``'s row in ``terms`` (and ``term_cols``), or None."""
        return self._lookup.get(term)

    def term_entry(self, term: str) -> dict | None:
        i = self._lookup.get(term)
        if i is None:
            return None
        e = {k: int(v[i]) for k, v in self.term_cols.items()}
        bs, nb = e["block_start"], e["n_blocks"]
        e["block_table"] = {k: v[bs : bs + nb] for k, v in self.blocks.items()}
        e["block_table"]["doc_map"] = self.doc_map
        e["block_table"]["dl_map"] = self.dl_map
        e["payload"] = bytes(
            self.payload[e["payload_off"] : e["payload_off"] + e["payload_len"]]
        )
        if self.has_positions:
            e["pos_payload"] = bytes(
                self.pos_payload[e["pos_off"] : e["pos_off"] + e["pos_len"]]
            )
        return e


# a segment's per-term stats as the term-stats seals aggregate them
TERMSTATS_COLUMNS = ("term", *TERM_COLUMNS, "max_tf", "min_dl")


def segment_term_stats(seg_dir: str) -> pa.Table:
    """The ``TERMSTATS_COLUMNS`` of segment dir ``seg_dir``, in term order:
    term, df and cf from its term table, max_tf and min_dl derived from
    its block table (``postings.term_bounds``), the one copy of them."""
    terms = pq.ParquetFile(os.path.join(seg_dir, "terms.parquet")).read(
        columns=["term", *TERM_COLUMNS])
    blocks = pq.ParquetFile(os.path.join(seg_dir, "blocks.parquet")).read(
        columns=["max_tf", "min_dl"])
    max_tf, min_dl = term_bounds(column_numpy(terms["df"]),
                                 column_numpy(blocks["max_tf"]),
                                 column_numpy(blocks["min_dl"]))
    return terms.append_column("max_tf", pa.array(max_tf)).append_column(
        "min_dl", pa.array(min_dl))


def _mmap_or_empty(f) -> np.ndarray:
    """The open file ``f`` mmapped read-only as uint8 (empty if it is): a
    plain ndarray view of the map, since ``np.memmap`` indexing runs
    Python-level hooks on every gather."""
    if os.fstat(f.fileno()).st_size:
        return np.memmap(f, dtype=np.uint8, mode="r").view(np.ndarray)
    return np.empty(0, np.uint8)


def _parquet_files(path: str) -> list[str]:
    """All .parquet files under a file-or-directory path, sorted."""
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(r, f)
        for r, _d, fs in os.walk(path)
        for f in fs if f.endswith(".parquet")
    )


def _parquet_rows(path: str) -> int:
    """Row count of every .parquet file under ``path``, from the footers."""
    return sum(pq.ParquetFile(f).metadata.num_rows for f in _parquet_files(path))


def parquet_decoded_bytes(files: list[str], columns=None) -> int:
    """Uncompressed bytes of the parquet ``files``' row groups (of their
    ``columns`` only, when given), from the footers: what reading them
    costs in memory, whatever their codec."""
    total = 0
    for f in files:
        meta = pq.read_metadata(f)
        for i in range(meta.num_row_groups):
            rg = meta.row_group(i)
            total += (rg.total_byte_size if columns is None else sum(
                rg.column(j).total_uncompressed_size
                for j in range(rg.num_columns)
                if rg.column(j).path_in_schema in columns))
    return total


def read_build_id(index_dir: str) -> str | None:
    """The id ``build_index`` gave this index (None if it has none): a
    segment name means one version within a build, and a rebuild in place
    writes the same names again."""
    try:
        with open(os.path.join(index_dir, GLOBAL, BUILD_ID)) as f:
            return f.read()
    except OSError:
        return None


# -- commit markers: the one record of each commit ---------------------

_GEN_RE = re.compile(r"^s(\d+)_b(\d+)(?:_g(\d+))?$")
_MARKER_RE = re.compile(r"^g(\d+)\.json$")


def _gen_marker_dir(index_dir: str) -> str:
    return os.path.join(index_dir, GLOBAL, "gens")


def marker_path(index_dir: str, gen: int) -> str:
    return os.path.join(_gen_marker_dir(index_dir), f"g{gen:04d}.json")


def write_marker(index_dir: str, gen: int, info: dict) -> None:
    """Commit generation ``gen``: write its marker once, under a name no
    commit took before (tmp file + rename onto the new name). Raises
    FileExistsError rather than replace a marker a reader may hold."""
    final = marker_path(index_dir, gen)
    if os.path.lexists(final):
        raise FileExistsError(f"marker {final} already exists")
    os.makedirs(os.path.dirname(final), exist_ok=True)
    tmp = os.path.join(os.path.dirname(final),
                       f".g{gen:04d}-{uuid.uuid4().hex[:8]}.tmp")
    with open(tmp, "w") as f:
        json.dump(info, f)
    os.replace(tmp, final)


def committed_gens(index_dir: str, at: int | None = None) -> set[int]:
    """Generations whose marker exists (those up to ``at`` when given)."""
    d = _gen_marker_dir(index_dir)
    names = os.listdir(d) if os.path.isdir(d) else []
    gens = {int(m.group(1)) for n in names if (m := _MARKER_RE.match(n))}
    return gens if at is None else {g for g in gens if g <= at}


def newest_gen(index_dir: str) -> int:
    """The newest committed generation: the marker a reader pins. An index
    without one was never built (FileNotFoundError), or was written by a
    ``PIPELINE_VERSION`` that kept its commit state elsewhere (ValueError,
    see ``read_marker``)."""
    gens = committed_gens(index_dir)
    if not gens:
        if os.path.exists(os.path.join(index_dir, GLOBAL, "stats.json")):
            _refuse_version(index_dir, None)
        raise FileNotFoundError(f"{index_dir}: no committed marker (not built)")
    return max(gens)


def _refuse_version(index_dir: str, version) -> None:
    if version is None:  # a layout whose stats lived beside its markers
        try:
            with open(os.path.join(index_dir, GLOBAL, "stats.json")) as f:
                version = json.load(f).get("pipeline_version")
        except (OSError, ValueError):
            pass
    raise ValueError(
        f"index {index_dir} was written under pipeline_version {version!r}, "
        f"this code reads {PIPELINE_VERSION!r}: rebuild the index")


def read_marker(index_dir: str, at: int | None = None) -> dict:
    """Marker ``at`` (the newest when None): the commit's ``stats``, the
    name of its ``termstats`` version and what the commit changed. Raises
    for a marker of another ``PIPELINE_VERSION``."""
    gen = newest_gen(index_dir) if at is None else at
    with open(marker_path(index_dir, gen)) as f:
        m = json.load(f)
    version = m.get("stats", {}).get("pipeline_version")
    if version != PIPELINE_VERSION:
        _refuse_version(index_dir, version)
    return m


def read_stats(index_dir: str, at: int | None = None) -> dict:
    """Global stats (N, total_len, avgdl, n_shards, n_buckets, ...) as of
    marker ``at`` (the newest when None)."""
    return read_marker(index_dir, at)["stats"]


def termstats_dir(index_dir: str, at: int | None = None) -> str:
    """The term-stats version marker ``at`` (the newest when None) names."""
    return os.path.join(index_dir, GLOBAL, read_marker(index_dir, at)["termstats"])


def _committed_markers(index_dir: str, at: int | None = None
                       ) -> dict[int, dict]:
    """gen -> marker of every committed generation (up to ``at`` when
    given); an unreadable marker reads as {} (fsck names it)."""
    return _markers_of(index_dir, committed_gens(index_dir, at))


def _markers_of(index_dir: str, gens) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for gen in gens:
        try:
            with open(marker_path(index_dir, gen)) as f:
                out[gen] = json.load(f)
        except (OSError, ValueError):
            out[gen] = {}
    return out


def applied_through(markers: dict[int, dict]) -> int:
    """The newest generation a ``vacuum_docs`` commit among ``markers``
    applied: the tombstones, replaces and extra-row counts of markers up
    to it are physically gone (0 if no vacuum ran)."""
    return max((int(info["applied_through"]) for info in markers.values()
                if "applied_through" in info), default=0)


def list_segment_generations(index_dir: str) -> dict[tuple[int, int], list[str]]:
    """(shard, bucket) -> [dir names, base first then gens ascending]."""
    root = os.path.join(index_dir, SEGMENTS)
    out: dict[tuple[int, int], list[str]] = {}
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        m = _GEN_RE.match(name)
        if not m:
            continue
        if not os.path.exists(os.path.join(root, name, "manifest.json")):
            continue
        key = (int(m.group(1)), int(m.group(2)))
        out.setdefault(key, []).append(name)
    return out


def folded_gens(index_dir: str,
                markers: dict[int, dict] | None = None) -> set[int]:
    """Generations superseded by a committed compaction: every gen listed
    in a committed marker's ``folds`` (0, the base, once a full merge has
    run). Their segment dirs are invisible (live_gens skips them) and
    removable (cleanup deletes them); their MARKERS stay forever —
    ``replaces`` lists still feed tombstone thresholds and ``_next_gen``
    monotonicity."""
    if markers is None:
        markers = _committed_markers(index_dir)
    out: set[int] = set()
    for info in markers.values():
        out.update(int(g) for g in info.get("folds", ()))
    return out


def live_gens(
    index_dir: str,
    names: list[str],
    folded: set[int] | None = None,
    committed: set[int] | None = None,
) -> list[str]:
    """Visible segment dirs for one (shard, bucket): those whose generation
    (``segment_gen``; 0 for the base) is committed — the base needs no
    marker — and not folded into a committed compaction. Callers iterating
    many pairs should pass ``folded=folded_gens(index_dir)`` once —
    computing it re-reads every commit marker. Readers racing a live
    writer should pass BOTH ``folded`` and ``committed`` from one marker
    snapshot (see ``live_segments``) so visibility decisions are mutually
    consistent."""
    if committed is None:
        committed = committed_gens(index_dir)
    if folded is None:
        folded = folded_gens(index_dir)
    return [n for n in names
            if (g := segment_gen(n)) not in folded and (g == 0 or g in committed)]


def live_segments(index_dir: str, markers: dict[int, dict] | None = None
                  ) -> dict[tuple[int, int], list[str]]:
    """(shard, bucket) -> its live segment dirs (``live_gens``), every
    visibility decision taken from ONE marker snapshot (``markers``, read
    here if not given; a reader pinned at marker G passes those up to G);
    pairs without a live segment are left out."""
    if markers is None:
        markers = _committed_markers(index_dir)
    folded, committed = folded_gens(index_dir, markers), set(markers)
    out = {}
    for key, names in list_segment_generations(index_dir).items():
        live = live_gens(index_dir, names, folded, committed)
        if live:
            out[key] = live
    return out


def live_totals(index_dir: str, markers: dict[int, dict]) -> tuple[int, int]:
    """(total tokens, postings) of the segments live under ``markers``,
    from their manifests."""
    ms = [read_manifest(index_dir, n)
          for names in live_segments(index_dir, markers).values() for n in names]
    return sum(m["n_tokens"] for m in ms), sum(m["n_postings"] for m in ms)


def tombstones(markers: dict[int, dict], fields=("tombstones", "replaces")
               ) -> dict[int, int]:
    """doc id -> masked_below_gen over ``markers``: each id a marker's
    ``fields`` list masks below that marker's own generation. A delete
    lists its ids under ``tombstones``, a replace-add under ``replaces``;
    lists a vacuum applied no longer count."""
    cut = applied_through(markers)
    thr: dict[int, int] = {}
    for gen, info in markers.items():
        if gen > cut:
            for f in fields:
                for d in info.get(f, ()):
                    thr[int(d)] = max(thr.get(int(d), 0), gen)
    return thr


def load_tombstone_thresholds(
    index_dir: str, markers: dict[int, dict] | None = None,
    at: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted doc ids, aligned masked_below_gen) of the deletes and
    replaced-away versions in force at marker ``at`` (the newest when
    None; or over the snapshot ``markers``)."""
    thr = tombstones(_committed_markers(index_dir, at) if markers is None
                     else markers)
    ids = np.array(sorted(thr), dtype=np.int64)
    return ids, np.array([thr[int(i)] for i in ids], dtype=np.int64)


def masked_rows(ids, gens, tomb_ids: np.ndarray, tomb_thr: np.ndarray
                ) -> np.ndarray:
    """Whether each forward-table row (doc ``ids[i]`` at generation
    ``gens[i]``) is masked: its doc has a threshold above the generation."""
    ids = np.asarray(ids, np.int64)
    if not len(tomb_ids):
        return np.zeros(len(ids), bool)
    pos = np.minimum(np.searchsorted(tomb_ids, ids), len(tomb_ids) - 1)
    return (tomb_ids[pos] == ids) & (tomb_thr[pos] > np.asarray(gens, np.int64))


def segment_gen(name: str) -> int:
    """Generation of segment dir ``name``: its ``_g`` suffix (the marker
    that commits it), 0 for a base ``s####_b####`` written by a build or
    a reshard. Drives visibility (``live_gens``); use
    :func:`segment_mask_gen` when deciding which tombstone thresholds
    apply to the segment's postings."""
    m = _GEN_RE.match(name)
    return int(m.group(3) or 0) if m else 0


def segment_bucket(seg_dir: str) -> int:
    """Term bucket of segment dir ``seg_dir``, from its name
    ``s####_b####[_g####]``."""
    return int(_GEN_RE.match(os.path.basename(seg_dir)).group(2))


def read_manifest(index_dir: str, name: str) -> dict:
    with open(os.path.join(index_dir, SEGMENTS, name, "manifest.json")) as f:
        return json.load(f)


def segment_mask_gen(index_dir: str, name: str) -> int:
    """MASK generation of a segment: postings read from it are masked iff
    ``tombstone_threshold > mask_gen``. Equal to the visibility gen except
    for compaction output, whose manifest records ``mask_gen`` = the
    highest SOURCE generation folded in: the output dir carries a fresh
    marker gen M, but its postings were expunged with the per-source masks
    known at merge time, so only thresholds ABOVE the sources may still
    apply — and a delete racing the merge always lands with threshold
    > max(source gens), so it is never skipped. A reader takes it from
    the manifest it opened (``SegmentReader.mask_gen``)."""
    try:
        m = read_manifest(index_dir, name)
    except (OSError, ValueError):
        m = {}
    return _mask_gen_of(name, m)


def _mask_gen_of(name: str, manifest: dict) -> int:
    return int(manifest.get("mask_gen", segment_gen(name)))


def open_segment(index_dir: str, name: str):
    """SegmentReader over an arbitrary segment dir name (base or delta)."""
    return SegmentReader(index_dir, name=name)


def _docs_columns(docs_dir: str) -> list[str]:
    """Column names of the forward doc table (sniffs one fragment)."""
    for root, _dirs, files in os.walk(docs_dir):
        for f in sorted(files):
            if f.endswith(".parquet"):
                return pq.ParquetFile(os.path.join(root, f)).schema_arrow.names
    return []
