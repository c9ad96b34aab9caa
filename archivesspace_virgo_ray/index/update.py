"""Incremental index maintenance: generational segments, segment-rewrite
tasks, delete tombstones.

The reference maintains its Solr index incrementally — an mtime-window dirty
set (IndexRecords.java:124-132) re-posts changed docs, and Solr handles
segment merging internally. Here both halves are explicit:

- ``add_documents``: tokenizes ONLY the new docs and writes **delta
  segments** ``s####_b####_g####`` next to the base segments; global stats
  (N, total_len) and per-term stats (df/cf/max_tf/min_dl) are merged in.
  Because doc ids are content-derived and shard = doc_id % n_shards, a doc's
  postings land in the same shard forever — queries stay doc-sharded
  scatter/merge, reading base + deltas per (shard, bucket).
- ``merge_segments``: one plain Ray task per (shard, bucket)
  (:func:`rewrite_segment`) merges all its live generations into a single
  segment; ``tiered_merge`` runs the same task to fold delta generations
  into one combined delta. Both commit the same way (:func:`_compact`):
  the output is a fresh generation named by one commit marker, so no
  segment dir is ever renamed over or rewritten in place. Merging is
  deterministic (terms ascending, postings doc_id-ascending), so a merged
  index is **byte-identical** to a full rebuild over the union corpus —
  the conformance test asserts exactly that.
- ``delete_documents``: generation-thresholded tombstones (Lucene-style):
  masked at query time, df/avgdl unchanged until a merge expunges the
  postings — same visibility semantics as Solr deletes before an optimize.
  A later re-add of the same id becomes visible automatically.
- ``add_documents(on_conflict="replace")``: Solr replace-by-id — old
  generations are masked atomically via the commit marker's replaces list.

Every commit (these, ``update_fields``, ``vacuum_docs``, a build, a
reshard) is ONE new marker ``_global/gens/g####.json``, written once after
everything it names: the commit's full stats, the term-stats version it
names (a fresh one when df changed, else its predecessor's) and what it
changed (folds, replaces, a delete's tombstones). Nothing a reader may hold
is rewritten in place; a commit then reaps the term-stats versions neither
of the two newest markers names (``build._reap_termstats``).
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from .build import BuildConfig, batch_errors_as_raised, make_doc_stats_fn
from .build import make_triples_fn
from .build import is_small, read_small_source, table_triples, write_segments
from .locking import locked_on
from .segments import SEGMENTS, live_segments, read_manifest
from .segments import segment_name, write_segment
from .segments import _parquet_files, _parquet_rows, read_stats
from .segments import PARQUET_CODEC, write_table
# the read-side helpers live in segments.py (a query worker imports them
# without this module's Ray Data and pandas imports); re-exported here
from .segments import (  # noqa: F401
    _GEN_RE,
    _committed_markers,
    _docs_columns,
    _markers_of,
    applied_through,
    committed_gens,
    folded_gens,
    list_segment_generations,
    live_gens,
    live_totals,
    load_tombstone_thresholds,
    masked_rows,
    open_segment,
    segment_gen,
    segment_mask_gen,
    tombstones,
    write_marker,
)


def _commit_gen(index_dir: str, gen: int, info: dict) -> None:
    """Commit generation ``gen``: write its marker ``info`` — the commit's
    ``stats``, the ``termstats`` version it names (written before) and
    what it changed — once, then reap the term-stats versions the reap
    rule frees (``build._reap_termstats``)."""
    from .build import _reap_termstats

    write_marker(index_dir, gen, info)
    _reap_termstats(index_dir)


def _cleanup_uncommitted_gens(index_dir: str) -> bool:
    """Remove segment dirs / doc-table parts from generations whose commit
    marker never landed (a crashed or abandoned add or compaction) — makes
    every writer safely retryable (no double indexing) — and segment dirs
    a committed compaction folded (the base too, once a full merge ran),
    after healing a crashed vacuum's swap (``_heal_crashed_vacuum``).
    Both are invisible to readers; every writer runs this first, so a
    leftover never shares its generation with a later commit. Returns True
    if anything was removed or healed."""
    import shutil

    removed = _heal_crashed_vacuum(index_dir)
    committed = committed_gens(index_dir)
    folded = folded_gens(index_dir)
    root = os.path.join(index_dir, SEGMENTS)
    if os.path.isdir(root):
        for name in os.listdir(root):
            if not _GEN_RE.match(name):
                continue
            gen = segment_gen(name)
            if gen in folded or (gen and gen not in committed):
                shutil.rmtree(os.path.join(root, name), ignore_errors=True)
                removed = True
    docs_dir = os.path.join(index_dir, "_docs")
    if os.path.isdir(docs_dir):
        for name in os.listdir(docs_dir):
            m = re.match(r"^gen=(\d+)$", name)
            if m and int(m.group(1)) not in committed:
                shutil.rmtree(os.path.join(docs_dir, name), ignore_errors=True)
                removed = True
    return removed


def _next_gen(index_dir: str) -> int:
    names = list_segment_generations(index_dir).values()
    return max({0} | committed_gens(index_dir)
               | {segment_gen(n) for ns in names for n in ns}) + 1


@locked_on("index_dir")
def add_documents(
    source: str | ray.data.Dataset,
    index_dir: str,
    cfg: BuildConfig,
    on_conflict: str = "error",
) -> dict:
    """Append documents as a delta generation.

    ``on_conflict`` controls what happens when an incoming doc_id is already
    LIVE in the index (the natural misuse the reference's incremental model
    invites — it re-posts changed docs and Solr replaces by id):

    - ``"error"`` (default): raise, listing the overlapping ids.
    - ``"replace"``: Solr/Lucene replace-by-id semantics — the replaced ids
      ride in the new generation's commit marker, so their old generations
      are masked ATOMICALLY with the new generation becoming visible (no
      window where both or neither version shows). df / total_len keep the
      old version's contribution until ``merge_segments`` folds generations
      (the same visibility rule as deletes); n_docs stays exact.

    cfg must match the base index's n_shards/n_buckets (checked)."""
    if on_conflict not in ("error", "replace"):
        raise ValueError(f"on_conflict must be 'error' or 'replace', got {on_conflict!r}")
    stats = read_stats(index_dir)
    if (stats["n_shards"], stats["n_buckets"]) != (cfg.n_shards, cfg.n_buckets):
        raise ValueError("cfg shards/buckets must match the existing index")
    if stats.get("analyzer", "plain") != cfg.analyzer:
        raise ValueError(
            f"cfg analyzer {cfg.analyzer!r} must match the existing index's "
            f"{stats.get('analyzer', 'plain')!r} — mixed token streams would "
            "silently corrupt postings")
    from .build import _assign_ids, _seal_termstats, _seal_termstats_incremental

    _cleanup_uncommitted_gens(index_dir)  # drop half-added gens (retry)
    markers = _committed_markers(index_dir)
    n_dead = _dead_docs(index_dir, markers, stats)
    # delta segments must match the base's positional layout — adopt it
    # (mixing positional and non-positional generations would silently
    # disable phrase-by-positions for some docs)
    cfg.store_positions = bool(stats.get("positions", False))
    gen = _next_gen(index_dir)

    read_cols = list(
        dict.fromkeys(
            ([cfg.id_col] if cfg.id_col else list(cfg.key_cols))
            + list(cfg.meta_cols)
            + [cfg.text_col]
        )
    )
    # A small delta from a parquet path loads driver-side ONCE (delta_tbl) —
    # skipping two whole Ray Data executions (the id scan and the later
    # doc/triples pass) whose fixed cost dominates a small add's latency.
    delta_tbl = read_small_source(source, read_cols)
    docs = None
    if delta_tbl is None:
        docs = (ray.data.read_parquet(source, columns=read_cols)
                if isinstance(source, str) else source)

    # ---- conflict detection -------------------------------------------------
    # Incoming ids are delta-sized (collected); the corpus-sized side is
    # scanned distributed against the broadcast incoming set — only matches
    # (bounded by the delta) reach the driver.
    if delta_tbl is not None:
        inc_ids = np.asarray(_assign_ids(delta_tbl, cfg), dtype=np.int64)
    else:
        inc_parts = docs.map_batches(
            lambda t: pa.table(
                {"doc_id": pa.array(np.asarray(_assign_ids(t, cfg), dtype=np.int64))}
            ),
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
        ).to_pandas()
        inc_ids = inc_parts["doc_id"].to_numpy(np.int64)
    uniq_inc = np.unique(inc_ids)
    if len(uniq_inc) != len(inc_ids):
        raise ValueError("add_documents: incoming batch contains duplicate doc ids")
    inc_ref = ray.put(uniq_inc)  # sorted

    docs_dir = os.path.join(index_dir, "_docs")
    scan_cols = ["doc_id", "gen"]

    # per-file tasks instead of ray.data.read_parquet: the datasource's
    # metadata prefetch alone cost ~1.5 s against a 1M-doc forward table,
    # several times the actual columnar scan
    overlap_parts = ray.get([
        _overlap_scan.remote(f, scan_cols, inc_ref)
        for f in _parquet_files(docs_dir)
    ])
    overlap = (
        pd.concat(overlap_parts, ignore_index=True)
        if overlap_parts else pd.DataFrame(columns=scan_cols)
    )
    replaced: list[int] = []
    shadowed: list[int] = []
    if len(overlap):
        latest = overlap.groupby("doc_id")["gen"].max()
        tomb_ids, tomb_thr = load_tombstone_thresholds(index_dir, markers)
        lat_ids = latest.index.to_numpy(np.int64)
        dead = masked_rows(lat_ids, latest.to_numpy(), tomb_ids, tomb_thr)
        live_overlap = np.sort(lat_ids[~dead])
        shadowed = [int(d) for d in np.sort(lat_ids[dead])]
        if len(live_overlap):
            if on_conflict == "error":
                sample = live_overlap[:10].tolist()
                raise ValueError(
                    f"add_documents: {len(live_overlap)} incoming doc ids already "
                    f"live in the index (e.g. {sample}); pass "
                    "on_conflict='replace' for replace-by-id semantics"
                )
            replaced = [int(d) for d in live_overlap]

    # ---- doc table delta + delta segments ----------------------------------
    # Small deltas (build.is_small) are tokenized on the DRIVER and their
    # triples go to write_segments as a table, written in-process; large
    # deltas stream through the staged exchange. Segments are
    # byte-identical either way.
    gen_dir = os.path.join(docs_dir, f"gen={gen:04d}")
    # a table read above was hashed once (inc_ids), for both passes
    delta_ids = inc_ids if delta_tbl is not None else None
    if delta_tbl is None and is_small(len(inc_ids)):
        delta_tbl = pa.Table.from_pandas(docs.to_pandas(), preserve_index=False)
    if delta_tbl is not None:
        doc_rows = make_doc_stats_fn(cfg, gen=gen)(delta_tbl, delta_ids)
        os.makedirs(gen_dir, exist_ok=True)
        write_table(doc_rows, os.path.join(gen_dir, "part-0.parquet"))
        triples = table_triples(delta_tbl, cfg, ids=delta_ids)
        seg_rows = write_segments(triples, index_dir, cfg, gen=gen)
    else:
        with batch_errors_as_raised(docs):
            docs.map_batches(
                make_doc_stats_fn(cfg, gen=gen), batch_format="pyarrow",
                batch_size=cfg.batch_size,
            ).write_parquet(gen_dir, **PARQUET_CODEC)
            seg_rows = write_segments(docs.map_batches(
                make_triples_fn(cfg, frozenset()), batch_format="pyarrow",
                batch_size=cfg.batch_size,
            ), index_dir, cfg, gen=gen)

    n_new = int(len(uniq_inc))
    # commit order: segments + docs, then the term-stats version (a
    # delta-sized merge into the predecessor's; the full reseal when that
    # cannot run — same stats either way), then the marker: readers ignore
    # unmarked gens and versions, cleanup and the reap rule remove them, and
    # ``replaces`` masks the old versions atomically with the new ones
    info = {"n_docs": n_new, "n_tokens": sum(int(r["n_tokens"]) for r in seg_rows),
            "replaces": replaced, "n_replaced": len(replaced),
            "n_shadowed": len(shadowed)}
    after = {**markers, gen: info}
    # stats["n_docs"] counts LIVE docs: a brand-new id adds 1, a replace
    # adds 0 (its old version was counted), and a re-add over a DEAD id
    # adds 1 (its old version was not counted)
    new_stats = _restat(index_dir, stats, after, n_new,
                        len(replaced) + len(shadowed), n_dead - len(shadowed))
    info.update(stats=new_stats, termstats=(
        _seal_termstats_incremental(index_dir, gen, after)
        or _seal_termstats(index_dir, after)))
    _commit_gen(index_dir, gen, info)
    return new_stats


# commit-marker fields that count forward-table rows of a doc the table
# already held: a replaced-away version (``n_replaced``), the dead row a
# re-add shadows (``n_shadowed``), the row an update_fields row updates
# (``meta_update``), and what a vacuum or a reshard carried over of all
# three (``extra_rows``)
EXTRA_ROW_FIELDS = ("n_replaced", "n_shadowed", "meta_update", "extra_rows")


def extra_rows(markers: dict[int, dict]) -> int:
    """Forward-table rows the commit ``markers`` record beyond one per
    doc (``EXTRA_ROW_FIELDS``); a vacuum's marker carries what it left of
    those its predecessors recorded (``applied_through``)."""
    cut = applied_through(markers)
    return sum(int(info.get(f, 0)) for gen, info in markers.items()
               if gen > cut for f in EXTRA_ROW_FIELDS)


def _restat(index_dir: str, prev: dict, markers: dict[int, dict], rows: int,
            extras: int, dead: int) -> dict:
    """The stats a recounting commit writes into its marker: ``prev`` (its
    predecessor's) with ``n_docs`` moved by the forward-table ``rows`` the
    commit adds, less the ``extras`` among them (rows of docs the table
    held) and the docs that died since ``prev`` counted its ``dead`` ones,
    and the totals of the segments live under ``markers`` (the commit's
    own marker included). The invariant fsck checks (``marker_stats``):

        n_docs = rows - extra_rows - dead_cache["n_dead"]

    where ``dead_cache`` is the dead-doc count ``n_docs`` accounts for and
    the tombstones it was taken at (``_tombstone_key``). A delete and a
    drop-free fold carry their predecessor's stats: Lucene-delete
    semantics, N and df keep a deleted doc until a later commit recounts."""
    total_len, n_postings = live_totals(index_dir, markers)
    n_docs = (prev["n_docs"] + rows - extras
              - (dead - prev.get("dead_cache", {}).get("n_dead", 0)))
    return {**prev, "n_docs": n_docs, "total_len": total_len,
            "avgdl": total_len / n_docs if n_docs else 0.0,
            "n_postings": n_postings,
            "dead_cache": {"key": _tombstone_key(markers), "n_dead": dead}}


@ray.remote(num_cpus=0.5)
def _overlap_scan(path: str, cols: list[str], inc: np.ndarray) -> pd.DataFrame:
    """One forward-table fragment vs the broadcast (sorted) incoming id
    set; returns only the matching rows (bounded by the delta)."""
    t = pq.read_table(path, columns=cols)
    ids = np.asarray(t["doc_id"].to_numpy(), dtype=np.int64)
    pos = np.searchsorted(inc, ids)
    ok = pos < len(inc)
    hit = np.zeros(len(ids), dtype=bool)
    hit[ok] = inc[pos[ok]] == ids[ok]
    return t.filter(pa.array(hit)).to_pandas()


def write_segment_gen(index_dir, shard, bucket, gen, triples: pa.Table) -> dict:
    """Delta-segment writer: same format, gen-suffixed directory."""
    from .. import PIPELINE_VERSION

    return _publish_segment(
        index_dir, f"{segment_name(shard, bucket)}_g{gen:04d}",
        lambda scratch: write_segment(
            scratch, shard, bucket, triples,
            lineage={"generation": gen, "pipeline_version": PIPELINE_VERSION}))


def _publish_segment(index_dir, name, write) -> dict:
    """Publish the new segment dir ``name``: ``write(scratch)`` builds it,
    manifest included, as ``segment_name(shard, bucket)`` under a fresh
    dot-prefixed scratch root and returns its manifest, and the dir is
    renamed into place. A name is written once: an existing ``name``
    raises FileExistsError, so nothing is ever renamed over a segment a
    reader may hold."""
    import shutil
    import uuid

    scratch = os.path.join(index_dir, SEGMENTS, f".pub-{uuid.uuid4().hex[:8]}")
    m = write(scratch)
    src = os.path.join(scratch, SEGMENTS, segment_name(m["shard"], m["bucket"]))
    final_dir = os.path.join(index_dir, SEGMENTS, name)
    if os.path.lexists(final_dir):
        raise FileExistsError(f"segment {name} already exists")
    os.replace(src, final_dir)
    shutil.rmtree(scratch, ignore_errors=True)
    return m


def _link_segment(scratch, index_dir, shard, bucket, source, extras) -> dict:
    """``write`` step of :func:`_publish_segment` for a pair whose one
    source segment needs no rewrite: hard-link its files into ``scratch``
    (the bytes a rewrite would write) and write its manifest with
    ``extras`` stamped in."""
    src = os.path.join(index_dir, SEGMENTS, source)
    dst = os.path.join(scratch, SEGMENTS, segment_name(shard, bucket))
    os.makedirs(dst)
    for f in os.listdir(src):
        if f != "manifest.json":
            os.link(os.path.join(src, f), os.path.join(dst, f))
    m = {**read_manifest(index_dir, source), **extras}
    with open(os.path.join(dst, "manifest.json"), "w") as f:
        json.dump(m, f)
    return m


def _read_expunged_triples(
    readers: dict,
    tomb_ids: np.ndarray,
    tomb_thr: np.ndarray,
    merge_pos: bool,
) -> pa.Table:
    """Decode every (term, doc) posting of the segments in ``readers``
    (name -> SegmentReader), dropping postings masked at each source
    segment's own mask generation. Returns the (term, doc_id, tf, dl[,
    pos]) table write_segment consumes. One whole-segment decode, one mask
    test and one table per source segment; each posting's term is an Arrow
    ``take`` of the reader's term column by term row."""
    from .postings import decode_segment, position_bytes_array

    parts = []
    for rdr in readers.values():
        docs, tfs, dls, df, pos = decode_segment(rdr)
        mask = tomb_ids[tomb_thr > rdr.mask_gen]
        keep = ~np.isin(docs, mask)
        rows = np.repeat(np.arange(len(df), dtype=np.int64), df)[keep]
        cols = {"term": rdr.terms["term"].take(pa.array(rows)),
                "doc_id": pa.array(docs[keep]), "tf": pa.array(tfs[keep]),
                "dl": pa.array(dls[keep])}
        if merge_pos:
            cols["pos"] = position_bytes_array(tfs[keep],
                                               pos[np.repeat(keep, tfs)])
        parts.append(pa.table(cols))
    return pa.concat_tables(parts)


def rewrite_segment(index_dir, shard, bucket, names, tombs, fold) -> dict:
    """Rewrite one (shard, bucket) pair: the work unit of both compactions.
    Reads the driver-chosen source dirs ``names``, drops the postings
    masked at each source's own generation (deletes and replaced-away
    versions), and writes the survivors as the pair's segment of
    generation ``out_gen`` (``fold`` = (out_gen, mask_gen)), invisible
    until the driver commits that marker. Deterministic (write_segment
    sorts by (term, doc_id)), so a full merge is byte-identical to a
    rebuild over the live corpus and a retried task writes the same bytes.
    ``tombs`` = (tomb_ids, tomb_thr, n_shards).

    A single source with no masked posting is hard-linked instead of
    decoded (same bytes). The manifest gets ``mask_gen`` (the highest
    folded generation, so query-time thresholds keep masking correctly —
    segment_mask_gen), lineage and ``expunged_sig``, the signature of the
    masks applied, so segment_needs_expunge fires again only when the
    pair's relevant mask set changes. Writes no dir when every posting was
    masked: the committed marker hides the sources and nothing needs to
    replace them. Returns {shard, bucket, n_tokens, n_postings, n_dropped,
    rewritten}."""
    from .. import PIPELINE_VERSION

    tomb_ids, tomb_thr, n_shards = tombs
    out_gen, mask_gen = fold
    name = f"{segment_name(shard, bucket)}_g{out_gen:04d}"
    extras = {"lineage": {"generation": out_gen,
                          "pipeline_version": PIPELINE_VERSION},
              "mask_gen": mask_gen,
              "expunged_sig": mask_signature(tomb_ids, tomb_thr, shard,
                                             n_shards, mask_gen)}
    out = {"shard": shard, "bucket": bucket, "n_dropped": 0,
           "rewritten": len(names) > 1 or segment_needs_expunge(
               index_dir, shard, names[0], *tombs)}
    if out["rewritten"]:
        readers = {n: open_segment(index_dir, n) for n in names}
        # positions carry through iff every source stores them (always
        # true when built/added consistently)
        merge_pos = all(r.has_positions for r in readers.values())
        triples = _read_expunged_triples(readers, tomb_ids, tomb_thr,
                                         merge_pos)
        out["n_dropped"] = sum(int(r.term_cols["df"].sum())
                               for r in readers.values()) - triples.num_rows
        if not triples.num_rows:
            return {**out, "n_tokens": 0, "n_postings": 0}

        def write(scratch):
            return write_segment(scratch, shard, bucket, triples,
                                 extras=extras)
    else:
        def write(scratch):
            return _link_segment(scratch, index_dir, shard, bucket, names[0],
                                 extras)
    m = _publish_segment(index_dir, name, write)
    return {**out, "n_tokens": int(m["n_tokens"]),
            "n_postings": int(m["n_postings"])}


@ray.remote
def _rewrite_segment_task(*args) -> dict:
    """Task wrapper: one (shard, bucket) rewrite per task."""
    return rewrite_segment(*args)


def _rewrite_pairs(index_dir, work, tombs, concurrency, fold) -> list[dict]:
    """Run :func:`rewrite_segment` over ``work`` [(shard, bucket, names)]
    as plain Ray tasks, at most ``concurrency`` at once, with the options
    of the merge placement hook. Results come back in ``work`` order."""
    from .placement import merge_remote_args

    task = _rewrite_segment_task.options(**merge_remote_args(index_dir))
    tombs_ref = ray.put(tombs)
    refs, running = [], []
    for shard, bucket, names in work:
        if len(running) >= max(1, concurrency):
            _done, running = ray.wait(running, num_returns=1)
        refs.append(task.remote(index_dir, shard, bucket, names, tombs_ref, fold))
        running.append(refs[-1])
    return ray.get(refs)


def _load_tombs(index_dir: str, markers: dict[int, dict]
                ) -> tuple[np.ndarray, np.ndarray, int]:
    return (*load_tombstone_thresholds(index_dir, markers),
            read_stats(index_dir)["n_shards"])


def _compact(index_dir, fold, tombs, concurrency, info, recount=False
             ) -> tuple[int, list]:
    """One compaction commit, shared by both compactions: fold the live
    generations ``fold`` into a fresh generation M.

    1. every pair holding a folded generation gets its segment of M from
       :func:`rewrite_segment` — a Ray task per pair that needs a rewrite
       (at most ``concurrency`` at once), in-process for a pair whose one
       source needs none (a hard link) — invisible until committed,
    2. marker M commits with ``folds`` (plus ``info``): the atomic
       visibility flip — readers now see M and skip the sources. A fold
       that dropped masked postings (or ``recount``) names a fresh full
       term-stats seal and recounted stats (``_restat``); a drop-free one
       only moved postings between dirs, so it names its predecessor's,
    3. the folded source dirs are deleted (lazily: a crash here leaves
       dirs that cleanup and fsck --repair reap).

    Returns (M, per-pair results)."""
    import shutil

    from .build import _seal_termstats

    markers = _committed_markers(index_dir)
    out_gen = _next_gen(index_dir)
    fold_set = set(fold)
    stamp = (out_gen, max(fold))
    tasks, local = [], []
    for (s, b), names in sorted(live_segments(index_dir, markers).items()):
        src = [n for n in names if segment_gen(n) in fold_set]
        if len(src) == 1 and not segment_needs_expunge(index_dir, s, src[0], *tombs):
            local.append((s, b, src))
        elif src:
            tasks.append((s, b, src))
    out = _rewrite_pairs(index_dir, tasks, tombs, concurrency, stamp) + [
        rewrite_segment(index_dir, s, b, src, tombs, stamp) for s, b, src in local]
    info = {"n_docs": 0, "n_tokens": sum(r["n_tokens"] for r in out),
            "replaces": [], "n_replaced": 0, "n_shadowed": 0,
            "folds": sorted(int(g) for g in fold), **info}
    after = {**markers, out_gen: info}
    prev = markers[max(markers)]
    if recount or any(r["n_dropped"] for r in out):
        info.update(stats=_restat(index_dir, prev["stats"], after, 0, 0,
                                  _dead_docs(index_dir, markers, prev["stats"])),
                    termstats=_seal_termstats(index_dir, after))
    else:
        info.update(stats=prev["stats"], termstats=prev["termstats"])
    _commit_gen(index_dir, out_gen, info)
    root = os.path.join(index_dir, SEGMENTS)
    for name in os.listdir(root):
        if _GEN_RE.match(name) and segment_gen(name) in fold_set:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    return out_gen, out


@locked_on("index_dir")
def merge_segments(index_dir: str, concurrency: int = 4) -> pd.DataFrame:
    """Merge every (shard, bucket) to ONE live segment and EXPUNGE masked
    postings — also from single-segment pairs in shards holding deleted
    docs, so a full merge always leaves stats exact. Runs only when some
    pair needs it; then it commits like one :func:`tiered_merge` round
    (:func:`_compact`): every live generation, the base's 0 included, folds
    into a fresh generation M whose marker says ``merged``. Pairs that
    need no rewrite get M by hard link, so the merge pays only for dirty
    pairs. Returns the merge report: the rewritten pairs."""
    _cleanup_uncommitted_gens(index_dir)  # a crashed earlier attempt
    markers = _committed_markers(index_dir)
    tombs = _load_tombs(index_dir, markers)
    live = live_segments(index_dir, markers)
    if all(len(names) == 1
           and not segment_needs_expunge(index_dir, s, names[0], *tombs)
           for (s, _b), names in live.items()):
        return pd.DataFrame(columns=["shard", "bucket", "merged"])
    gens = {segment_gen(n) for names in live.values() for n in names}
    # a merge drops masked postings (deletes / replaced-away versions), so
    # its marker recounts the stats: after a full merge they are EXACT for
    # the live corpus — the numbers a from-scratch rebuild over the latest
    # versions would produce
    _gen, out = _compact(index_dir, sorted(gens), tombs, concurrency,
                         {"merged": True}, recount=True)
    done = [r for r in out if r["rewritten"]]
    return pd.DataFrame({"shard": [r["shard"] for r in done],
                         "bucket": [r["bucket"] for r in done],
                         "merged": True})


def _live_delta_gen_sizes(index_dir: str) -> dict[int, int]:
    """gen -> token size for every VISIBLE delta generation (committed, not
    folded; never the base nor a full merge's output, which the tier
    policy leaves alone), from the commit markers — no segment IO. Size
    drives tier assignment only; slight overstatement after an expunge is
    harmless."""
    markers = _committed_markers(index_dir)
    live = {segment_gen(n) for names in live_segments(index_dir, markers).values()
            for n in names}
    return {g: max(1, int(markers[g].get("n_tokens", 1)))
            for g in sorted(live) if g and not markers[g].get("merged")}


def select_fold(
    gen_sizes: dict[int, int], merge_factor: int = 4
) -> list[int]:
    """Log-structured tier policy: bucket generations by
    floor(log_{merge_factor}(size)); the lowest level holding >=
    merge_factor gens is folded (all of its gens, oldest level first).
    Empty list = nothing to do. Deterministic in its inputs; total merge
    cost over n same-sized adds is O(n log n) tokens — each posting is
    rewritten once per level it climbs."""
    if merge_factor < 2:
        raise ValueError("merge_factor must be >= 2")
    levels: dict[int, list[int]] = {}
    for g, size in gen_sizes.items():
        lv = 0
        s = max(1, int(size))
        while s >= merge_factor:
            s //= merge_factor
            lv += 1
        levels.setdefault(lv, []).append(g)
    for lv in sorted(levels):
        if len(levels[lv]) >= merge_factor:
            return sorted(levels[lv])
    return []


@locked_on("index_dir")
def tiered_merge(
    index_dir: str,
    merge_factor: int = 4,
    concurrency: int = 4,
    max_rounds: int = 100,
) -> dict:
    """Fold delta generations LSM-style until every tier is below
    ``merge_factor`` — bounds read amplification (live generations per
    query) at O(merge_factor * log(total/smallest)) without ever rewriting
    the base, unlike :func:`merge_segments` whose cost is the whole index.

    Single maintenance writer assumed, like all index mutators here: clean
    uncommitted/folded leftovers (a crashed prior attempt), then per round
    one :func:`_compact` commit of the generations :func:`select_fold`
    picks — each round's marker names the term stats and stats of its own
    live set.

    Returns {"rounds": [...]} with per-round folds/new_gen/pairs."""
    report: dict = {"rounds": []}
    _cleanup_uncommitted_gens(index_dir)
    tombs = _load_tombs(index_dir, _committed_markers(index_dir))  # folds add none
    for _ in range(max_rounds):
        fold = select_fold(_live_delta_gen_sizes(index_dir), merge_factor)
        if not fold:
            break
        out_gen, out = _compact(index_dir, fold, tombs, concurrency,
                                {"tiered": True})
        report["rounds"].append(
            {"folds": [int(g) for g in fold], "new_gen": int(out_gen),
             "pairs": sum(r["n_postings"] > 0 for r in out),
             "n_dropped": sum(r["n_dropped"] for r in out)}
        )
    return report


def _tombstone_key(markers: dict[int, dict]) -> int:
    """Which delete tombstones are in force under ``markers``: the newest
    generation whose marker added some a vacuum has not applied (0: none).
    Deletes only add tombstones and only a vacuum clears them, so equal
    keys mean equal tombstone sets."""
    cut = applied_through(markers)
    return max((g for g, info in markers.items()
                if g > cut and info.get("tombstones")), default=0)


def _dead_docs(index_dir: str, markers: dict[int, dict], stats: dict) -> int:
    """Docs whose latest version an explicit delete masks under
    ``markers``: ``stats``' dead-doc count when it was taken at the same
    tombstones (``_tombstone_key``; an add moves it by the dead docs it
    re-adds), else the distributed forward-table probe. Adds of new ids,
    replaces of live ids, field updates and merges leave it unchanged, so
    steady-state ingest after a delete pays one scan."""
    cache = stats.get("dead_cache")
    if cache and cache.get("key") == _tombstone_key(markers):
        return int(cache["n_dead"])
    return _count_dead_docs(index_dir, markers)


def _count_dead_docs(index_dir: str, markers: dict[int, dict]) -> int:
    """Docs present in the forward table whose latest generation is masked
    by an EXPLICIT delete tombstone (replaced-away versions are accounted
    separately via the commit markers' n_replaced). The tombstone set is
    small; the corpus-sized side is scanned distributed against it."""
    thr_map = tombstones(markers, ("tombstones",))
    if not thr_map:
        return 0
    ids = np.array(sorted(thr_map), dtype=np.int64)
    thr = np.array([thr_map[int(i)] for i in ids], dtype=np.int64)
    ids_ref = ray.put(ids)
    docs_dir = os.path.join(index_dir, "_docs")
    parts = ray.get([_overlap_scan.remote(f, ["doc_id", "gen"], ids_ref)
                     for f in _parquet_files(docs_dir)])
    rows = pd.concat(parts, ignore_index=True) if parts else None
    if rows is None or not len(rows):
        return 0
    latest = rows.groupby("doc_id")["gen"].max()
    return int(masked_rows(latest.index, latest.to_numpy(), ids, thr).sum())


def _heal_crashed_vacuum(index_dir: str) -> bool:
    """Recover the crash windows of :func:`vacuum_docs`' forward-table
    swap. Its backup ``_docs.old-gN`` names the generation the vacuum
    commits: if marker N landed and is the vacuum's own (``vacuumed``) the
    swap stands and the backup goes; if not the swap is rolled back — the
    compacted table moves aside and the backup returns — so the forward
    table always matches the newest marker's stats. Leftover staging goes
    too. Every writer runs this first (``_cleanup_uncommitted_gens``), so
    no other commit takes generation N from a swap still waiting for its
    marker. Returns True if anything was healed."""
    import shutil

    docs_dir = os.path.join(index_dir, "_docs")
    tmp_dir = docs_dir + ".vtmp"
    healed = False
    for name in sorted(os.listdir(index_dir)):
        m = re.match(r"^_docs\.old-g(\d+)$", name)
        if not m:
            continue
        old = os.path.join(index_dir, name)
        gen = int(m.group(1))
        if (gen in committed_gens(index_dir)
                and _markers_of(index_dir, [gen])[gen].get("vacuumed")):
            shutil.rmtree(old, ignore_errors=True)
        else:
            if os.path.isdir(docs_dir):
                shutil.rmtree(tmp_dir, ignore_errors=True)
                os.rename(docs_dir, tmp_dir)
            os.rename(old, docs_dir)
        healed = True
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir, ignore_errors=True)
        healed = True
    return healed


@locked_on("index_dir")
def vacuum_docs(index_dir: str) -> dict:
    """Compact the forward doc table and clear fully-applied tombstones —
    the 'deletes actually reclaimed' step (Lucene's expungeDeletes makes
    postings disappear; this makes the doc-table rows and the tombstone
    file follow), run after a full expunging :func:`merge_segments`.

    Preconditions (ValueError otherwise): one live segment per pair and
    none still holding masked postings — i.e. every mask is already
    physically applied, so dropping the bookkeeping loses nothing.

    1. Rewrite ``_docs`` keeping only rows with ``gen >= threshold(doc_id)``
       — exactly the segment mask rule: explicitly-deleted docs drop
       entirely, replaced-away versions drop, latest versions stay. The
       threshold map is small (deletes + replaces) and broadcast; the
       corpus-sized side streams through a filter — no shuffle, no
       driver-side data.
    2. Swap in via rename-rename (``_docs`` -> ``_docs.old-gN``, staging
       -> ``_docs``), N being the generation step 3 commits.
    3. Commit marker N, whose ``applied_through`` names the newest
       generation before it: every tombstone and ``replaces`` threshold of
       the markers up to there is applied, so the dead-doc count — and
       :func:`maintain`'s garbage metric — resets to 0. Older markers are
       never rewritten; they keep the generation-numbering history. Then
       the backup goes. A crash between the renames and the marker is
       rolled back, one after it rolled forward, by the next writer or
       ``fsck --repair`` (VACUUM_LEFTOVER, ``_heal_crashed_vacuum``).

    Live stats are unchanged by construction; returns
    ``{"vacuumed", "rows_dropped", "tombstones_cleared"}``."""
    import shutil

    _cleanup_uncommitted_gens(index_dir)
    markers = _committed_markers(index_dir)
    newest = max(markers)
    stats = markers[newest]["stats"]
    n_shards = stats["n_shards"]
    tomb_ids, tomb_thr = load_tombstone_thresholds(index_dir, markers)
    for (s, _b), names in live_segments(index_dir, markers).items():
        if len(names) > 1:
            raise ValueError(
                f"vacuum_docs: visible delta generations remain ({names}) "
                "— run merge_segments() first")
        if segment_needs_expunge(index_dir, s, names[0], tomb_ids, tomb_thr,
                                 n_shards):
            raise ValueError(
                f"vacuum_docs: segment {names[0]} still holds masked "
                "postings — run merge_segments() first")
    n_tomb = len(tombstones(markers, ("tombstones",)))
    if not len(tomb_ids):
        return {"vacuumed": False, "rows_dropped": 0, "tombstones_cleared": 0}
    n_dead = _dead_docs(index_dir, markers, stats)

    docs_dir = os.path.join(index_dir, "_docs")
    tmp_dir = docs_dir + ".vtmp"
    ids_ref, thr_ref = ray.put(tomb_ids), ray.put(tomb_thr)

    def keep_live(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(~masked_rows(
            t["doc_id"].to_numpy(), t["gen"].to_numpy(),
            ray.get(ids_ref), ray.get(thr_ref))))

    n_before = _parquet_rows(docs_dir)
    (ray.data.read_parquet(docs_dir)
        .map_batches(keep_live, batch_format="pyarrow")
        .write_parquet(tmp_dir, **PARQUET_CODEC))
    dropped = n_before - _parquet_rows(tmp_dir)
    gen = _next_gen(index_dir)
    old_dir = f"{docs_dir}.old-g{gen:04d}"
    os.replace(docs_dir, old_dir)
    os.replace(tmp_dir, docs_dir)
    # the replaced-away versions, shadowed rows and every row of a dead
    # doc are physically gone now; the rows an update_fields row updates
    # stay. The stats' identity (rows - extras - dead) held before and the
    # dead count is 0 after, so the extra rows left are extras + dead -
    # dropped: this marker carries them as ``extra_rows``, and those of
    # the markers it applied no longer count (``extra_rows``)
    left = extra_rows(markers) + n_dead - dropped
    info = {"applied_through": newest, "extra_rows": left, "vacuumed": True}
    info["stats"] = _restat(index_dir, stats, {**markers, gen: info}, -dropped,
                            left - extra_rows(markers), 0)
    info["termstats"] = markers[newest]["termstats"]
    _commit_gen(index_dir, gen, info)
    shutil.rmtree(old_dir, ignore_errors=True)
    return {"vacuumed": True, "rows_dropped": int(dropped),
            "tombstones_cleared": n_tomb}


@locked_on("index_dir")
def maintain(
    index_dir: str,
    merge_factor: int = 4,
    max_fold_rounds: int = 4,
    dead_ratio: float = 0.10,
    vacuum: bool = True,
    concurrency: int = 4,
) -> dict:
    """One policy-driven maintenance pass — the per-index cron job on a
    cluster (Lucene's TieredMergePolicy + forceMergeDeletes rolled into
    one idempotent call):

    1. **tiered folds** (delta-sized cost, base untouched): coalesce small
       delta generations while the log-structured policy finds a tier;
    2. **full expunging merge** (index-sized cost, so gated): only when the
       garbage fraction — explicitly deleted docs plus replaced-away
       versions not yet expunged (markers above the newest full merge's)
       — reaches ``dead_ratio`` of the corpus;
    3. **vacuum** (optional, after a merge): compact the forward table and
       reset the tombstone bookkeeping via :func:`vacuum_docs`.

    The garbage fraction is an upper-bound estimate from the markers alone
    — the dead-doc count the newest marker carries, plus every id deleted
    since it was taken — never a corpus scan. Safe to run on any schedule:
    each step no-ops when there is nothing to do."""
    report: dict = {"tiered": tiered_merge(
        index_dir, merge_factor=merge_factor, max_rounds=max_fold_rounds,
        concurrency=concurrency)}
    markers = _committed_markers(index_dir)
    stats = markers[max(markers)]["stats"]
    cache = stats.get("dead_cache", {})
    since = max(cache.get("key", 0), applied_through(markers))
    n_dead = cache.get("n_dead", 0) + sum(
        len(info.get("tombstones", ())) for g, info in markers.items() if g > since)
    merged = max((g for g, info in markers.items() if info.get("merged")),
                 default=0)
    n_replaced = sum(int(info.get("n_replaced", 0))
                     for gen, info in markers.items() if gen > merged)
    garbage = n_dead + n_replaced
    n_live = int(stats.get("n_docs", 0))
    frac = garbage / (n_live + garbage) if (n_live + garbage) else 0.0
    report["garbage_fraction"] = round(frac, 6)
    report["merged_pairs"] = 0
    if garbage and frac >= dead_ratio:
        merged = merge_segments(index_dir, concurrency=concurrency)
        report["merged_pairs"] = int(len(merged))
        if vacuum:
            report["vacuum"] = vacuum_docs(index_dir)
    return report


# --------------------------- deletes (tombstones) ---------------------------
#
# Tombstones are GENERATION-THRESHOLDED: each entry is doc_id ->
# masked_below_gen, and a posting read from a segment of generation ``g`` is
# masked iff ``g < masked_below_gen``. Two producers:
#
# - ``delete_documents`` commits a marker listing the ids under
#   ``tombstones``: masked_below_gen = that marker's own generation, so
#   every generation existing at delete time is masked but a LATER re-add
#   of the same doc id becomes visible automatically — no tombstone
#   clearing (and no crash window between clearing and commit).
# - ``add_documents(on_conflict="replace")`` records the replaced ids in the
#   new generation's COMMIT MARKER (threshold = that generation), so the old
#   version is masked atomically with the new version becoming visible.

@locked_on("index_dir")
def delete_documents(index_dir: str, doc_ids) -> int:
    """Tombstone doc ids. Lucene-delete semantics: masked from results at
    query time; df/length stats unchanged until rebuild/merge (the marker
    carries its predecessor's stats and term-stats version). Returns the
    number of ids tombstoned by deletes in force."""
    _cleanup_uncommitted_gens(index_dir)
    markers = _committed_markers(index_dir)
    ids = sorted({int(d) for d in doc_ids})
    if ids:
        prev = markers[max(markers)]
        gen = _next_gen(index_dir)
        info = {"tombstones": ids, "stats": prev["stats"],
                "termstats": prev["termstats"]}
        _commit_gen(index_dir, gen, info)
        markers[gen] = info
    return len(tombstones(markers, ("tombstones",)))


@locked_on("index_dir")
def delete_by_query(index_dir: str, text: str, mode: str = "and") -> int:
    """Solr deleteByQuery: tombstone every doc matching the boolean query
    (ALL terms for ``mode="and"``, ANY for ``"or"``). The match runs
    through the distributed pool (posting decode + set ops shard-local);
    only the matched id list reaches the driver, then the normal
    tombstone-threshold path applies (df/length stats unchanged until
    merge, exactly like id deletes). Returns the number of docs deleted
    by THIS call."""
    from .query import get_pool

    ids = get_pool(index_dir).matching_doc_ids(text, mode=mode)
    if len(ids):
        delete_documents(index_dir, ids.tolist())
    return int(len(ids))


def mask_signature(
    tomb_ids: np.ndarray, tomb_thr: np.ndarray, shard: int, n_shards: int, gen: int
) -> str:
    """Deterministic fingerprint of the tombstone masks RELEVANT to a
    segment (this shard's docs with threshold above the segment's gen);
    "" when none apply. A scalar high-water threshold is NOT enough here:
    consecutive deletes with no intervening generation share the same
    threshold value, and the second would look already-expunged."""
    if not len(tomb_ids):
        return ""
    sel = (tomb_thr > gen) & (tomb_ids % n_shards == shard)
    if not bool(np.any(sel)):
        return ""
    import hashlib

    h = hashlib.md5()
    h.update(np.ascontiguousarray(tomb_ids[sel]).tobytes())
    h.update(np.ascontiguousarray(tomb_thr[sel]).tobytes())
    return h.hexdigest()


def segment_expunged_sig(index_dir: str, name: str) -> str:
    """The mask signature the last expunging merge applied to this segment
    (recorded by the merger; "" for never-expunged)."""
    try:
        return str(read_manifest(index_dir, name).get("expunged_sig", ""))
    except (OSError, ValueError):
        return ""


def segment_needs_expunge(
    index_dir: str,
    shard: int,
    name: str,
    tomb_ids: np.ndarray,
    tomb_thr: np.ndarray,
    n_shards: int,
) -> bool:
    """True iff this segment may still hold masked postings: the CURRENT
    relevant mask set differs from the one already expunged into it.
    Shared by the merge work-list and vacuum_docs' precondition — the two
    must never disagree."""
    sig = mask_signature(tomb_ids, tomb_thr, shard, n_shards,
                         segment_mask_gen(index_dir, name))
    if not sig:
        return False
    return sig != segment_expunged_sig(index_dir, name)


@locked_on("index_dir")
def update_fields(index_dir: str, updates: pd.DataFrame) -> dict:
    """Atomic partial update (Solr atomic-update ``set`` on stored fields):
    overwrite metadata columns of LIVE docs WITHOUT touching postings —
    BM25 scores are bit-identical before and after; facets, grouping,
    boosts and filters see the new values atomically when the generation
    marker lands (readers ignore unmarked generations).

    ``updates``: doc_id plus the meta columns to set (a subset of the doc
    table's meta columns — never doc_id/gen/shard/sha256). Raises if a
    target id is not live or a column is unknown.

    Shape: the corpus-sized doc table scans DISTRIBUTED against the
    broadcast target-id set (only delta-sized matches reach the driver);
    the new generation is one small parquet of the resolved current rows
    with the fields overwritten. No segments, and the commit marker carries
    no ``replaces`` — postings visibility is untouched — and names its
    predecessor's term-stats version.
    """
    _cleanup_uncommitted_gens(index_dir)
    markers = _committed_markers(index_dir)
    prev = markers[max(markers)]

    docs_dir = os.path.join(index_dir, "_docs")
    existing_cols = _docs_columns(docs_dir)
    protected = {"doc_id", "gen", "shard", "sha256"}
    set_cols = [c for c in updates.columns if c != "doc_id"]
    unknown = [c for c in set_cols if c not in existing_cols or c in protected]
    if unknown:
        raise ValueError(f"update_fields: not updatable columns: {unknown}")
    if not set_cols:
        raise ValueError("update_fields: no columns to set")
    target = np.unique(updates["doc_id"].to_numpy(np.int64))
    if len(target) != len(updates):
        raise ValueError("update_fields: duplicate doc ids in updates")
    t_ref = ray.put(target)

    def _match(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_numpy(), dtype=np.int64)
        tg = ray.get(t_ref)
        pos = np.searchsorted(tg, ids)
        ok = pos < len(tg)
        hit = np.zeros(len(ids), dtype=bool)
        hit[ok] = tg[pos[ok]] == ids[ok]
        return t.filter(pa.array(hit))

    rows = (
        ray.data.read_parquet(docs_dir)
        .map_batches(_match, batch_format="pyarrow")
        .to_pandas()
    )
    if len(rows) == 0 or "doc_id" not in rows.columns:
        # all-empty blocks can drop the schema entirely
        rows = pd.DataFrame({c: pd.Series([], dtype=object)
                             for c in existing_cols})
        rows["doc_id"] = rows["doc_id"].astype(np.int64)
    rows = rows.sort_values("gen", kind="mergesort").drop_duplicates(
        "doc_id", keep="last")
    # live check (tombstoned-current rows are dead)
    rows = rows[~masked_rows(rows["doc_id"], rows["gen"],
                             *load_tombstone_thresholds(index_dir, markers))]
    missing = np.setdiff1d(target, rows["doc_id"].to_numpy(np.int64))
    if len(missing):
        raise ValueError(
            f"update_fields: {len(missing)} target ids not live "
            f"(e.g. {missing[:10].tolist()})"
        )

    gen = _next_gen(index_dir)
    new_rows = rows.merge(updates, on="doc_id", suffixes=("", "__new"))
    for c in set_cols:
        new_rows[c] = new_rows[f"{c}__new"]
    new_rows = new_rows[existing_cols].copy()
    new_rows["gen"] = np.int64(gen)
    gen_dir = os.path.join(docs_dir, f"gen={gen:04d}")
    os.makedirs(gen_dir, exist_ok=True)
    write_table(pa.Table.from_pandas(new_rows, preserve_index=False),
                os.path.join(gen_dir, "part-0.parquet"))
    # the stats recount as an add's would (pending deletes), and the rows
    # of this generation are extra rows of docs the table holds
    info = {"n_docs": 0, "n_tokens": 0, "replaces": [], "n_replaced": 0,
            "n_shadowed": 0, "meta_update": int(len(new_rows))}
    info.update(
        stats=_restat(index_dir, prev["stats"], {**markers, gen: info},
                      len(new_rows), len(new_rows),
                      _dead_docs(index_dir, markers, prev["stats"])),
        termstats=prev["termstats"])
    _commit_gen(index_dir, gen, info)
    return {"gen": gen, "n_updated": int(len(new_rows)), "set_cols": set_cols}


def realtime_get(
    index_dir: str, doc_ids, columns: list[str] | None = None
) -> pd.DataFrame:
    """Solr /get (realtime get): the CURRENT stored fields of the given ids.

    The latest committed generation wins per doc (replace / update_fields
    semantics); tombstone-masked docs are absent — a get right after
    update_fields / delete_by_query / add_documents reflects the change
    with no merge and no searcher reopen. Solr serves this from the update
    log; here the gen-layered ``_docs`` table IS that log, so RTG is one
    pushdown ``isin`` read (point lookup — never a corpus scan into the
    driver; parquet row groups that can't contain the ids are pruned by
    their doc_id statistics). It reads as of the newest marker: rows of a
    generation no marker commits yet (every writer cleans up crash
    remnants first, so those are newer) are left out.

    Returns rows sorted by doc_id; ``columns`` (plus doc_id) prunes the
    output. Reference parity: the Solr endpoint the reference posts to
    exposes /get with these exact semantics (uvalib Solr usage; see
    SURVEY.md §2.1 S5 point lookups).
    """
    import pyarrow.dataset as pads

    from .segments import newest_gen

    at = newest_gen(index_dir)
    docs_dir = os.path.join(index_dir, "_docs")
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    dset = pads.dataset(docs_dir)
    pdf = dset.to_table(
        filter=pads.field("doc_id").isin(pa.array(ids, pa.int64()))
    ).to_pandas()
    pdf = pdf[pdf["gen"] <= at].sort_values(
        "gen", kind="mergesort").drop_duplicates("doc_id", keep="last")
    pdf = pdf[~masked_rows(pdf["doc_id"], pdf["gen"],
                           *load_tombstone_thresholds(index_dir, at=at))]
    pdf = pdf.sort_values("doc_id", ignore_index=True)
    if columns is not None:
        keep = ["doc_id"] + [c for c in columns if c != "doc_id"]
        pdf = pdf[keep]
    return pdf
