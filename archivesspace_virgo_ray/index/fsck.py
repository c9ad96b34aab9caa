"""Index integrity audit (fsck): cross-check every durable artifact the
engine writes — segment manifests vs their files, the newest commit
marker's stats vs the live segments and the forward doc table, the
term-stats versions the markers name — and report (never repair) what
disagrees.

At 100 TB an index outlives many runs, machines and operators; the audit is
the cheap answer to "is this index dir safe to serve / snapshot / reshard?".
Everything here reads metadata, file sizes and each segment's small term
and block tables (the layout a reader derives from them must fit the
files) — no posting decode, so a multi-TB index audits in seconds.
(Posting-level byte checks already have stronger guarantees:
deterministic segments + atomic publish mean a visible segment is either
complete or absent, and a segment dir is written once under a new name
and only deleted after a committed compaction folded it.
A crash between a compaction's output and its marker, or between the
marker and the source reap, leaves invisible dirs: ``uncommitted_leftover``
and ``folded_leftover``; a crash between a seal and its marker leaves a
term-stats version no marker names, and a crashed reap its renamed-away
``.reap-*`` dir: ``termstats_leftover``. ``repair_index`` removes all
three.)

Findings carry STRUCTURED codes (``issue_codes`` parallel to ``issues``) so
``repair_index`` matches repairs to exactly the findings they fix — never by
substring-probing human-readable text.

Reference parity: the reference trusts Solr commits and re-posts on doubt;
this is the self-hosted equivalent of its hash-gated "reindex if anything
looks off" check (IndexRecordsForV4.java:44-69).
"""

from __future__ import annotations

import json
import os
import re
import time

from .segments import DOCS, GLOBAL, STAGING
from .locking import locked_on

# issue codes (stable API: repair_index and external tooling key on these)
MARKER_UNREADABLE = "marker_unreadable"
STATS_VERSION = "stats_version"
STRAY_TMP = "stray_tmp"
MANIFEST_MISSING = "manifest_missing"
SEG_INCOMPLETE = "seg_incomplete"
SEG_VERSION = "seg_version"
SEG_FILE_MISSING = "seg_file_missing"
SEG_PAYLOAD_SIZE = "seg_payload_size"
SEG_DOC_TABLE_MISSING = "seg_doc_table_missing"
SEG_DOC_TABLE_SIZE = "seg_doc_table_size"
SEG_POSITIONS_MISSING = "seg_positions_missing"
SEG_POSITIONS_SIZE = "seg_positions_size"
SEG_TERMS_ROWS = "seg_terms_rows"
SEG_BLOCK_ROWS = "seg_block_rows"
SEG_LAYOUT_SIZE = "seg_layout_size"
SEG_ORD_BITS = "seg_ord_bits"
SEG_LAST_ORD = "seg_last_ord"
MIXED_POSITIONS = "mixed_positions"
STATS_POSITIONS_FLAG = "stats_positions_flag"
MARKER_STATS = "marker_stats"
TERMSTATS_MISSING = "termstats_missing"
TERMSTATS_LEFTOVER = "termstats_leftover"
DOCS_MISSING = "docs_missing"
FOLDED_LEFTOVER = "folded_leftover"
UNCOMMITTED_LEFTOVER = "uncommitted_leftover"
VACUUM_LEFTOVER = "vacuum_leftover"


def fsck_index(index_dir: str) -> dict:
    """Audit ``index_dir``; returns {"ok": bool, "issues": [str, ...],
    "issue_codes": [str, ...] (parallel), "n_segments": int,
    "n_postings": int, "n_docs": int} (postings of the live segments,
    committed forward-table rows)."""
    from .segments import (
        _committed_markers,
        folded_gens,
        newest_gen,
        read_marker,
        segment_gen,
    )
    from .update import extra_rows
    from .. import PIPELINE_VERSION

    findings: list[tuple[str, str]] = []

    def add(code: str, msg: str) -> None:
        findings.append((code, msg))

    def result(n_segments: int, n_postings: int, n_docs: int) -> dict:
        return {
            "ok": not findings,
            "issues": [m for _, m in findings],
            "issue_codes": [c for c, _ in findings],
            "n_segments": n_segments,
            "n_postings": n_postings,
            "n_docs": n_docs,
        }

    # ---- the newest commit marker ------------------------------------------
    try:
        newest = read_marker(index_dir)
    except ValueError as e:
        if "pipeline_version" in str(e):
            add(STATS_VERSION, str(e))
        else:
            add(MARKER_UNREADABLE, f"newest commit marker unreadable: {e}")
        return result(0, 0, 0)
    except OSError as e:
        add(MARKER_UNREADABLE, f"newest commit marker unreadable: {e}")
        return result(0, 0, 0)
    stats = newest["stats"]
    markers = _committed_markers(index_dir)
    for gen in sorted(g for g, m in markers.items() if not m):
        add(MARKER_UNREADABLE, f"commit marker g{gen:04d} unreadable")

    # ---- segments ----------------------------------------------------------
    seg_root = os.path.join(index_dir, "segments")
    n_segments = n_postings = total_len = 0
    positions_flags = set()
    folded = folded_gens(index_dir, markers)
    committed = set(markers)
    for name in sorted(os.listdir(seg_root)) if os.path.isdir(seg_root) else []:
        d = os.path.join(seg_root, name)
        if name.startswith("."):
            # .tmp-* = crashed write_segment staging; .pub-* = crashed
            # publish scratch (update._publish_segment) — unreferenced;
            # safe to remove once the writer is certainly dead (repair
            # uses an mtime threshold)
            add(STRAY_TMP, f"stray tmp segment dir: {name}")
            continue
        if not os.path.isdir(d):
            continue
        gen = segment_gen(name)
        if gen in folded:
            # superseded by a committed compaction: invisible to readers
            # (live_gens skips folded gens) and safe to delete any time —
            # a crash between the marker commit and the source reap
            add(FOLDED_LEFTOVER, f"{name}: folded into a committed "
                "compaction but still on disk")
            continue
        if gen and gen not in committed:
            # a crashed add or compaction's output: invisible to readers
            add(UNCOMMITTED_LEFTOVER, f"{name}: generation {gen} never "
                "committed")
            continue
        mpath = os.path.join(d, "manifest.json")
        try:
            with open(mpath) as f:
                m = json.load(f)
        except (OSError, ValueError):
            add(MANIFEST_MISSING, f"{name}: manifest missing/unreadable")
            continue
        if m.get("status") != "complete":
            add(SEG_INCOMPLETE, f"{name}: status {m.get('status')!r}")
            continue
        if m.get("pipeline_version") != PIPELINE_VERSION:
            add(SEG_VERSION, f"{name}: stale pipeline_version "
                f"{m.get('pipeline_version')!r}")
        for fn in ("terms.parquet", "blocks.parquet", "postings.bin"):
            if not os.path.exists(os.path.join(d, fn)):
                add(SEG_FILE_MISSING, f"{name}: missing {fn}")
        ppath = os.path.join(d, "postings.bin")
        if os.path.exists(ppath):
            sz = os.path.getsize(ppath)
            if sz != m.get("payload_bytes"):
                add(SEG_PAYLOAD_SIZE,
                    f"{name}: postings.bin {sz} bytes != manifest "
                    f"payload_bytes {m.get('payload_bytes')}")
        dpath = os.path.join(d, "docs.bin")
        if not os.path.exists(dpath):
            add(SEG_DOC_TABLE_MISSING, f"{name}: missing docs.bin (doc table)")
        elif os.path.getsize(dpath) != m.get("docs_bytes"):
            add(SEG_DOC_TABLE_SIZE,
                f"{name}: docs.bin {os.path.getsize(dpath)} bytes != "
                f"manifest docs_bytes {m.get('docs_bytes')}")
        if m.get("positions"):
            xpath = os.path.join(d, "positions.bin")
            if not os.path.exists(xpath):
                add(SEG_POSITIONS_MISSING,
                    f"{name}: positional manifest but no positions.bin")
            elif os.path.getsize(xpath) != m.get("positions_bytes"):
                add(SEG_POSITIONS_SIZE,
                    f"{name}: positions.bin size != manifest positions_bytes")
        tpath = os.path.join(d, "terms.parquet")
        if os.path.exists(tpath):
            import pyarrow.parquet as pq

            n_terms = pq.read_metadata(tpath).num_rows
            if n_terms != m.get("n_terms"):
                add(SEG_TERMS_ROWS,
                    f"{name}: terms.parquet {n_terms} rows != "
                    f"manifest n_terms {m.get('n_terms')}")
        if (m.get("pipeline_version") == PIPELINE_VERSION
                and all(os.path.exists(os.path.join(d, fn)) for fn in
                        ("terms.parquet", "blocks.parquet", "postings.bin"))):
            for code, msg in _layout_findings(d, m):
                add(code, f"{name}: {msg}")
        n_segments += 1
        n_postings += int(m.get("n_postings", 0))
        total_len += int(m.get("n_tokens", 0))
        positions_flags.add(bool(m.get("positions", False)))

    if len(positions_flags) > 1:
        add(MIXED_POSITIONS, "mixed positional and non-positional segments")
    if positions_flags and (bool(stats.get("positions", False))
                            not in positions_flags):
        add(STATS_POSITIONS_FLAG,
            "stats positions flag disagrees with segments")

    # ---- term-stats versions: the reap rule keeps the two newest markers'
    gens = sorted(markers)
    kept = {markers[g].get("termstats") for g in gens[-2:]}
    if not os.path.isdir(os.path.join(index_dir, GLOBAL, newest["termstats"])):
        add(TERMSTATS_MISSING, f"term-stats version {newest['termstats']} "
            f"the newest marker g{newest_gen(index_dir):04d} names is missing")
    for name in sorted(os.listdir(os.path.join(index_dir, GLOBAL))):
        if name.startswith("termstats-") and name not in kept:
            add(TERMSTATS_LEFTOVER, f"term-stats version {name}: no kept "
                "marker names it")
        elif name.startswith(".reap-"):
            add(TERMSTATS_LEFTOVER, f"{name}: a crashed reap's term-stats "
                "version")

    if os.path.isdir(os.path.join(index_dir, STAGING)):
        # crashed triples exchange (build.write_segments): never read by
        # anything, rebuilt from scratch by the next exchange
        add(STRAY_TMP, f"stray tmp exchange staging dir: {STAGING}")

    # ---- forward doc table and the stats identity ---------------------------
    docs_dir = os.path.join(index_dir, DOCS)
    swap = [n for n in sorted(os.listdir(index_dir))
            if re.match(rf"^{DOCS}\.(old-g\d+|vtmp)$", n)]
    for name in swap:
        add(VACUUM_LEFTOVER, f"{name} present (crashed vacuum_docs — repair "
            "rolls its swap back or forward)")
    n_docs = 0
    if not os.path.isdir(docs_dir):
        if not any(".old" in n for n in swap):  # else VACUUM_LEFTOVER
            add(DOCS_MISSING, "_docs table missing")
    else:
        n_docs = _forward_rows(docs_dir, committed, add)
    want = {"n_docs": n_docs - extra_rows(markers)
            - stats.get("dead_cache", {}).get("n_dead", 0),
            "total_len": total_len, "n_postings": n_postings}
    for key, value in want.items():
        if key != "n_docs" or (os.path.isdir(docs_dir) and not swap):
            if stats.get(key) != value:
                add(MARKER_STATS, f"newest marker's {key} {stats.get(key)} "
                    f"!= {value} (live segments and forward table)")

    return result(n_segments, n_postings, n_docs)


def _forward_rows(docs_dir: str, committed: set[int], add) -> int:
    """Rows of the forward table's committed parts (``gen=N`` dirs of an
    uncommitted N are reported, not counted), from the footers."""
    import pyarrow.parquet as pq

    n = 0
    for root, _dirs, files in os.walk(docs_dir):
        m = re.search(r"gen=(\d+)$", root)
        if m and int(m.group(1)) not in committed:
            add(UNCOMMITTED_LEFTOVER, f"{DOCS}/{os.path.basename(root)}: "
                f"generation {int(m.group(1))} never committed")
            continue
        n += sum(pq.read_metadata(os.path.join(root, f)).num_rows
                 for f in files if f.endswith(".parquet"))
    return n


def _layout_findings(d: str, manifest: dict) -> list[tuple[str, str]]:
    """Check the layout a reader derives from segment dir ``d``'s term and
    block tables (``postings.term_layout``: offsets are not stored, so a
    damaged table would misread rather than raise) against its files."""
    import numpy as np
    import pyarrow.parquet as pq

    from .postings import BLOCK_SIZE, TAIL, term_layout
    from .segments import column_numpy

    terms = pq.ParquetFile(os.path.join(d, "terms.parquet")).read(
        columns=["df"])
    blocks = pq.ParquetFile(os.path.join(d, "blocks.parquet")).read(
        columns=["last_ord", "max_tf", "ord_bits"])
    df, last, max_tf, ord_bits = (column_numpy(c) for c in (
        terms["df"], blocks["last_ord"], blocks["max_tf"], blocks["ord_bits"]))
    n_rows = int(((df + BLOCK_SIZE - 1) // BLOCK_SIZE).sum())
    if len(ord_bits) != n_rows:
        return [(SEG_BLOCK_ROWS, f"blocks.parquet {len(ord_bits)} rows != "
                 f"{n_rows}, the blocks its terms' dfs need")]
    out = []
    try:
        lay = term_layout(df, max_tf, ord_bits)
    except ValueError as e:
        out.append((SEG_ORD_BITS, f"blocks.parquet: {e}"))
    else:
        size = os.path.getsize(os.path.join(d, "postings.bin"))
        if int(lay["payload_len"].sum()) + TAIL != size:
            out.append((SEG_LAYOUT_SIZE, "terms' derived payloads add up to "
                        f"{int(lay['payload_len'].sum())} bytes, postings.bin "
                        f"holds {size} with its {TAIL}-byte tail"))
    n_docs = int(manifest.get("n_docs", 0))
    bad = np.flatnonzero((last < 0) | (last >= n_docs))
    if len(bad):
        out.append((SEG_LAST_ORD, f"{len(bad)} block last ordinals outside "
                    f"the segment's {n_docs} docs"))
    return out


# repairs keyed by the EXACT finding codes they fix
_RECOMMIT_CODES = frozenset({MARKER_STATS, TERMSTATS_MISSING})
_REAP_CODES = frozenset({FOLDED_LEFTOVER, UNCOMMITTED_LEFTOVER,
                         TERMSTATS_LEFTOVER})

# Don't delete a dot-prefixed scratch dir younger than this: a delta add /
# build may still be writing into it (fsck --repair can run concurrently
# with writers; an in-flight writer's scratch mtime is recent by definition).
SCRATCH_MIN_AGE_SEC = 900.0


@locked_on("index_dir")
def repair_index(index_dir: str,
                 scratch_min_age_sec: float = SCRATCH_MIN_AGE_SEC) -> dict:
    """Heal the SAFE-to-heal findings and re-audit:

    - stray ``.tmp-*`` / ``.pub-*`` segment dirs and a leftover exchange
      ``_staging`` dir older than ``scratch_min_age_sec`` → removed (a
      crashed writer's staging — never referenced by anything; younger
      dirs are skipped because they may belong to a LIVE writer)
    - folded leftover segment dirs (crash between a compaction's marker
      commit and its source reap), uncommitted ones (crash before an add's
      or a compaction's marker) and term-stats versions no kept marker
      names → removed (invisible to readers; the lock keeps out the writer
      that could still commit them — safe at any age;
      ``update._cleanup_uncommitted_gens``, ``build._reap_termstats``)
    - drifted stats in the newest marker, or a missing term-stats version
      → a new marker commits the stats recomputed from the live segments
      and the forward table, naming a fresh full seal (term stats are
      fully derived data)

    Repairs trigger on structured issue CODES, never on message text.
    Structural damage (missing/truncated segment files) is NOT repairable
    here — those segments must be rebuilt (``build_index(resume=True)``
    rebuilds exactly the incomplete ones) — and is reported unchanged.

    Returns the post-repair audit plus an ``actions`` list."""
    import shutil

    from .build import _reap_termstats
    from .update import _cleanup_uncommitted_gens

    actions: list[str] = []
    now = time.time()
    seg_root = os.path.join(index_dir, "segments")
    scratch = [os.path.join(seg_root, n) for n in
               (sorted(os.listdir(seg_root)) if os.path.isdir(seg_root) else [])
               if n.startswith(".")]
    if os.path.isdir(os.path.join(index_dir, STAGING)):
        scratch.append(os.path.join(index_dir, STAGING))
    for p in scratch:
        name = os.path.basename(p)
        try:
            age = now - os.path.getmtime(p)
        except OSError:
            age = float("inf")  # vanished mid-scan: nothing left to keep
        if age < scratch_min_age_sec:
            actions.append(
                f"skipped scratch dir {name} (age {age:.0f}s < "
                f"{scratch_min_age_sec:.0f}s — possibly a live writer)")
            continue
        shutil.rmtree(p, ignore_errors=True)
        actions.append(f"removed stray tmp dir {name}")
    before = fsck_index(index_dir)
    codes = set(before["issue_codes"])
    if VACUUM_LEFTOVER in codes:
        from .update import _heal_crashed_vacuum

        if _heal_crashed_vacuum(index_dir):
            actions.append("healed crashed vacuum (_docs restored/cleaned)")
    if codes & _REAP_CODES:
        _cleanup_uncommitted_gens(index_dir)
        _reap_termstats(index_dir)
        actions.append("removed folded and uncommitted segment dirs and "
                       "unnamed term-stats versions")
    # after the heals: a rolled-back vacuum swap leaves stats that agree
    if codes & _RECOMMIT_CODES and set(
            fsck_index(index_dir)["issue_codes"]) & _RECOMMIT_CODES:
        _recommit(index_dir)
        actions.append("recomputed global stats from disk truth and "
                       "committed them with a fresh term-stats seal")
    after = fsck_index(index_dir)
    after["actions"] = actions
    return after


def _recommit(index_dir: str) -> None:
    """Commit a marker carrying the newest one's stats recomputed from the
    live segments and the forward table (the identity ``marker_stats``
    checks) and a fresh full term-stats seal."""
    from .build import _seal_termstats
    from .segments import _committed_markers, live_totals
    from .update import _commit_gen, _next_gen, extra_rows

    markers = _committed_markers(index_dir)
    stats = markers[max(markers)]["stats"]
    n_docs = (_forward_rows(os.path.join(index_dir, DOCS), set(markers),
                            lambda *_: None)
              - extra_rows(markers)
              - stats.get("dead_cache", {}).get("n_dead", 0))
    total_len, n_postings = live_totals(index_dir, markers)
    gen = _next_gen(index_dir)
    _commit_gen(index_dir, gen, {
        "stats": {**stats, "n_docs": n_docs, "total_len": total_len,
                  "avgdl": total_len / n_docs if n_docs else 0.0,
                  "n_postings": n_postings},
        "termstats": _seal_termstats(index_dir, {**markers, gen: {}})})
