"""Continuous ingestion: the reference's mtime-window incremental model
as a first-class loop.

The reference reindexes incrementally by asking ArchivesSpace for ids
modified since the last run and re-posting them to Solr
(IndexRecords.java:124-132 — the mtime window; Solr replaces by id).
Here the same contract runs against a parquet drop directory:

    ingest_once(corpus_dir, index_dir, cfg)
        1. scan for .parquet files whose ``(path, mtime_ns, size)`` key
           is not in the persisted seen-set (``_global/ingest.json``) —
           a file copied with its mtime preserved (``cp -p``,
           ``rsync -a``) is new even when older than everything seen
        2. add them as ONE delta generation with replace-by-id semantics
           (content keys are stable, so a re-dropped/changed file
           replaces its docs exactly like Solr re-posting)
        3. persist the new seen-set only AFTER the generation committed —
           a crash between add and state write re-adds with replace,
           which is idempotent by construction

    A state file from before the seen-set holds only ``watermark_ns``;
    it loads as "every file at or below the watermark was seen".

    CLI: ``watch --corpus DIR --index DIR [--interval S] [--maintain]``
        loops ingest_once on an interval (0 = run once); --maintain runs
        the maintenance policy pass after any round that ingested.

First run against a missing index bootstraps it with ``build_index`` over
the whole directory. Scale shape: the scan is driver-side metadata only
(file listing); everything data-sized rides add_documents' machinery
(small deltas take its driver fast path, large ones the staged exchange
of ``build.write_segments``), and visibility is the usual atomic marker
commit — a serving tier's ``get_pool`` picks each round up as one
in-place refresh.
"""

from __future__ import annotations

import json
import os

from .build import BuildConfig, build_index
from .locking import locked_on
from .segments import GLOBAL, committed_gens, read_stats

STATE_NAME = "ingest.json"


def _state_path(index_dir: str) -> str:
    return os.path.join(index_dir, GLOBAL, STATE_NAME)


def _load_state(index_dir: str) -> dict:
    try:
        with open(_state_path(index_dir)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {"watermark_ns": -1}


def _save_state(index_dir: str, keys: list, high: int) -> None:
    p = _state_path(index_dir)
    os.makedirs(os.path.dirname(p), exist_ok=True)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"watermark_ns": high, "seen": keys}, f)
    os.replace(tmp, p)


def _scan(corpus_dir: str, state: dict) -> tuple[list[str], list, int]:
    """(new .parquet files, every file's ``[relpath, mtime_ns, size]`` key,
    max mtime_ns seen). Keys are captured BEFORE reading: a file modified
    mid-read no longer matches its recorded key and is re-ingested
    (replace) next round."""
    wm = int(state.get("watermark_ns", -1))
    seen = state.get("seen")
    seen = None if seen is None else {tuple(k) for k in seen}
    new, keys, high = [], [], wm
    for root, _dirs, files in os.walk(corpus_dir):
        for f in sorted(files):
            if not f.endswith(".parquet"):
                continue
            p = os.path.join(root, f)
            try:
                st = os.stat(p)
            except OSError:
                continue
            key = (os.path.relpath(p, corpus_dir), st.st_mtime_ns, st.st_size)
            keys.append(list(key))
            high = max(high, st.st_mtime_ns)
            if (st.st_mtime_ns > wm) if seen is None else (key not in seen):
                new.append(p)
    return sorted(new), sorted(keys), high


@locked_on("index_dir")
def ingest_once(
    corpus_dir: str,
    index_dir: str,
    cfg: BuildConfig | None = None,
    maintain_after: bool = False,
) -> dict:
    """One ingestion round; see module docstring. Returns
    ``{"bootstrapped", "n_files", "added", "replaced", "watermark_ns"}``
    (plus ``"maintain"`` when requested and something ingested)."""
    import ray.data

    from .update import add_documents, maintain

    state = _load_state(index_dir)
    files, keys, high = _scan(corpus_dir, state)
    out = {"bootstrapped": False, "n_files": len(files), "added": 0,
           "replaced": 0, "watermark_ns": int(state.get("watermark_ns", -1))}
    if not committed_gens(index_dir):
        # first run: the whole directory IS the backlog
        stats = build_index(corpus_dir, index_dir, cfg, resume=True)
        _save_state(index_dir, keys, high)
        out.update(bootstrapped=True, added=int(stats["n_docs"]),
                   watermark_ns=high)
        return out
    if not files:
        return out
    stats = read_stats(index_dir)
    cfg = cfg or BuildConfig()
    if cfg.n_shards in (None, stats["n_shards"]):
        cfg.n_shards = stats["n_shards"]
    if cfg.n_buckets in (None, stats["n_buckets"]):
        cfg.n_buckets = stats["n_buckets"]
    before = int(stats["n_docs"])
    # one generation per round — the reference posts its whole dirty set
    # as one batch commit too. Multiple files ride a single Dataset.
    src = files[0] if len(files) == 1 else ray.data.read_parquet(files)
    new_stats = add_documents(src, index_dir, cfg, on_conflict="replace")
    _save_state(index_dir, keys, high)
    n_new = int(new_stats["n_docs"]) - before
    # replaced = incoming rows that did not grow the live count
    marker_replaced = _last_gen_replaced(index_dir)
    out.update(added=n_new, replaced=marker_replaced, watermark_ns=high)
    if maintain_after:
        out["maintain"] = maintain(index_dir)
    return out


def _last_gen_replaced(index_dir: str) -> int:
    from .update import _committed_markers

    markers = _committed_markers(index_dir)
    if not markers:
        return 0
    return int(markers[max(markers)].get("n_replaced", 0))
