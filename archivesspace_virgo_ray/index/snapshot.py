"""Index snapshot / restore (the Solr replication backup/restore API
surface, re-expressed for an object-store world).

Snapshot layout mirrors the live index; correctness comes from ORDER, not
locking:

- segment payloads copy FIRST (one Ray task per segment — parallel across
  the cluster, and resumable: a re-run skips segments whose snapshot
  manifest already matches byte-for-byte);
- the small global state (`_docs`, `_global`: the commit markers and
  their term-stats versions) copies next on the driver;
- a `_SNAPSHOT_COMPLETE.json` marker lands LAST. Restore refuses a
  marker-less directory, so a snapshot killed mid-copy can never be
  mistaken for a good one — the same commit-after-publish ordering as the
  reference's index swap (IndexRecordsForV4.java:116-125) and this repo's
  segment manifests.

Restore copies into a FRESH directory and verifies every segment manifest
it expected is complete before declaring success. Because segment bytes
are deterministic (same triples ⇒ byte-identical segment), a restored
index answers queries bit-identically to the snapshotted one.
"""

from __future__ import annotations

import json
import os
import shutil

from .segments import SEGMENTS, STAGING, list_complete_segments

_MARKER = "_SNAPSHOT_COMPLETE.json"


def _copytree(src: str, dst: str) -> None:
    shutil.copytree(src, dst, dirs_exist_ok=True)


def _mutation_fingerprint(index_dir: str) -> tuple:
    """Everything a concurrent writer could change between the two copy
    phases: every commit writes a new marker, so the committed-generation
    set. If this moves during a snapshot, the segment phase and the
    global-state phase may describe different index versions."""
    from .segments import committed_gens

    return tuple(sorted(committed_gens(index_dir)))


def snapshot_index(
    index_dir: str, snap_dir: str, concurrency: int = 8, max_attempts: int = 3
) -> dict:
    """Copy a consistent snapshot of ``index_dir`` into ``snap_dir``.
    Returns {n_segments, skipped} — re-running after a crash skips
    segments already copied (manifest equality check).

    Consistency: the committed-gen set is fingerprinted at start and
    re-checked after both copy phases. If a writer committed a
    generation (update_fields / delete_by_query / add_documents) mid-copy —
    which would leave gen markers and term stats referencing segments
    the segment phase never saw — the copy RETRIES (resume-skipping
    unchanged segments) up to ``max_attempts`` and then raises rather than
    publishing a silently inconsistent snapshot."""
    for attempt in range(max_attempts):
        fp_before = _mutation_fingerprint(index_dir)
        out = _snapshot_once(index_dir, snap_dir)
        if _mutation_fingerprint(index_dir) == fp_before:
            return out
    raise RuntimeError(
        f"snapshot_index: index mutated during every one of {max_attempts} "
        f"attempts — quiesce writers (or raise max_attempts) and retry"
    )


def _snapshot_once(index_dir: str, snap_dir: str) -> dict:
    import ray

    seg_src = os.path.join(index_dir, SEGMENTS)
    seg_dst = os.path.join(snap_dir, SEGMENTS)
    os.makedirs(seg_dst, exist_ok=True)
    # stale markers never survive a new snapshot attempt
    marker = os.path.join(snap_dir, _MARKER)
    if os.path.exists(marker):
        os.remove(marker)

    names = sorted(os.listdir(seg_src)) if os.path.isdir(seg_src) else []

    @ray.remote
    def copy_segment(name: str) -> bool:
        s, d = os.path.join(seg_src, name), os.path.join(seg_dst, name)
        man_s, man_d = os.path.join(s, "manifest.json"), os.path.join(d, "manifest.json")
        try:
            with open(man_s, "rb") as f1, open(man_d, "rb") as f2:
                if f1.read() == f2.read():
                    return True  # already snapshotted — resume skip
        except OSError:
            pass
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(s, tmp)
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)
        return False

    skipped = sum(ray.get([copy_segment.remote(n) for n in names]))

    # small global state on the driver (vocab-sized, not corpus-sized)
    for name in os.listdir(index_dir):
        if name in (SEGMENTS, STAGING):  # STAGING: a crashed exchange's leftover
            continue
        src = os.path.join(index_dir, name)
        dst = os.path.join(snap_dir, name)
        if os.path.isdir(src):
            shutil.rmtree(dst, ignore_errors=True)
            _copytree(src, dst)
        else:
            shutil.copy2(src, dst)

    # the marker records the COMPLETE-segment count as measured in the
    # snapshot itself (the source may legitimately hold incomplete segments
    # mid-build; the snapshot is faithful either way)
    n_complete = len(list_complete_segments(snap_dir))
    with open(marker + ".tmp", "w") as f:
        json.dump({
            "n_segments": n_complete,
            "source": os.path.abspath(index_dir),
        }, f)
    os.replace(marker + ".tmp", marker)
    return {"n_segments": n_complete, "skipped": int(skipped)}


def restore_index(snap_dir: str, dest_dir: str) -> dict:
    """Restore a snapshot into a fresh ``dest_dir``. Refuses marker-less
    (incomplete) snapshots and verifies segment completeness after copy."""
    marker = os.path.join(snap_dir, _MARKER)
    if not os.path.exists(marker):
        raise ValueError(
            f"{snap_dir} has no {_MARKER} — incomplete snapshot; refusing"
        )
    with open(marker) as f:
        meta = json.load(f)
    if os.path.isdir(dest_dir) and os.listdir(dest_dir):
        raise ValueError(f"restore target {dest_dir} is not empty")
    _copytree(snap_dir, dest_dir)
    os.remove(os.path.join(dest_dir, _MARKER))
    n = len(list_complete_segments(dest_dir))
    if n != meta["n_segments"]:
        raise ValueError(
            f"restored {n} complete segments, snapshot recorded "
            f"{meta['n_segments']} — snapshot corrupt"
        )
    return {"n_segments": n}
