"""Single-writer index locking — the Lucene ``write.lock`` analog.

The maintenance surface (``add_documents`` / ``delete_documents`` /
``update_fields`` / ``merge_segments`` / ``tiered_merge`` /
``vacuum_docs`` / a resumed ``build_index``) derives each commit from the
one before it (its marker's stats, term-stats version and tombstones, and
the next generation number), so it follows Lucene's concurrency model
(IndexWriter + write.lock): **one writer per index, any number of
readers**. Readers never take the lock — each commit is one new marker
that makes it atomically visible, so queries are always consistent
without coordination.

Mechanism: ``flock(2)`` on ``<index>/_global/write.lock``.

- atomic across processes on a shared POSIX filesystem (local disk, NFSv4);
- **auto-released when the holder dies** (the kernel drops the lock with
  the fd), so there is no stale-lock heuristic and no takeover window —
  the failure mode Lucene's SimpleFSLock needed ``unlockFactory`` for
  simply does not exist;
- advisory: the lock file's json payload (pid/host/time) is diagnostics
  only; correctness comes from the flock.

Within one process a per-index ``threading.RLock`` serializes threads and
makes the lock reentrant (``delete_by_query`` → ``delete_documents``,
``maintain`` → ``tiered_merge`` compose without deadlock); flock alone
cannot do this because two fds of the same process still conflict.

On an object store (S3/GCS) there is no flock — run mutations for one
index from a single coordinator job (the natural shape anyway: mutation
entry points are driver-side, the heavy work fans out through Ray), or
front them with an external lock service. Scale note: the 100-TB layout
shards the corpus across many *independent* indexes federated at query
time (``index/federated.py``), so writer parallelism comes from
one-writer-per-member, not from concurrent writers on one index.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import socket
import threading
import time

from .segments import GLOBAL

LOCK_NAME = "write.lock"
# the diagnostics payload is space-padded to at least this many bytes and
# overwritten in place: the file keeps one size across acquisitions, and
# no truncate (on ext4, a 30-60 ms flush of the file's last write) is needed
_LOCK_PAYLOAD_BYTES = 128


class IndexLockedError(RuntimeError):
    """Another writer holds the index's write lock (details in args)."""


def lock_path(index_dir: str) -> str:
    return os.path.join(index_dir, GLOBAL, LOCK_NAME)


def lock_owner(index_dir: str) -> dict | None:
    """Diagnostic payload the current/most recent holder wrote (pid, host,
    acquired_at). Best-effort: the file outliving its flock is normal."""
    try:
        with open(lock_path(index_dir)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


# per-(process, index) state: an RLock for intra-process serialization +
# reentrancy, and the flock fd while held. Keyed by realpath so the same
# index reached via different relative paths shares one lock.
_REGISTRY_GUARD = threading.Lock()
_REGISTRY: dict[str, dict] = {}


def _state(index_dir: str) -> dict:
    key = os.path.realpath(index_dir)
    with _REGISTRY_GUARD:
        st = _REGISTRY.get(key)
        if st is None:
            st = {"rlock": threading.RLock(), "fd": None, "depth": 0}
            _REGISTRY[key] = st
        return st


def _flock_exclusive(fd: int, timeout_s: float, index_dir: str) -> None:
    import fcntl

    deadline = time.monotonic() + timeout_s
    while True:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            return
        except OSError as e:
            if e.errno not in (errno.EAGAIN, errno.EACCES):
                raise
            if time.monotonic() >= deadline:
                raise IndexLockedError(
                    f"index {index_dir!r} is write-locked by another "
                    f"process (owner: {lock_owner(index_dir)}); waited "
                    f"{timeout_s:.1f}s"
                ) from None
            time.sleep(0.05)


def locked_on(argname: str):
    """Decorator: hold :func:`write_lock` on the named index-dir argument
    for the duration of the call — the one-line way to mark a public
    function as a mutating (single-writer) entry point."""
    import functools
    import inspect

    def deco(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind_partial(*args, **kwargs)
            with write_lock(bound.arguments[argname]):
                return fn(*args, **kwargs)

        return wrapper

    return deco


def nonlock_contents(index_dir: str) -> bool:
    """True if the dir holds anything beyond the write-lock skeleton
    (``_global/write.lock``) that acquiring the lock itself creates — the
    'is the target dirty?' tests in build/reshard must not count their
    own lock."""
    lock = lock_path(index_dir)
    for name in os.listdir(index_dir):
        p = os.path.join(index_dir, name)
        if name != GLOBAL or not os.path.isdir(p):
            return True
        if any(os.path.join(p, s) != lock for s in os.listdir(p)):
            return True
    return False


def wipe_index_dir(index_dir: str) -> None:
    """Delete an index directory's contents while PRESERVING the live
    ``write.lock`` file: a full rebuild holds the lock across its own wipe,
    and removing the file would silently hand the flock'd inode's
    exclusivity to nobody — a second rebuild could then recreate the path
    and lock it concurrently."""
    import shutil

    keep = lock_path(index_dir)
    for name in os.listdir(index_dir):
        p = os.path.join(index_dir, name)
        if name == GLOBAL and os.path.isdir(p):
            for sub in os.listdir(p):
                q = os.path.join(p, sub)
                if q == keep:
                    continue
                shutil.rmtree(q) if os.path.isdir(q) else os.unlink(q)
        else:
            shutil.rmtree(p) if os.path.isdir(p) else os.unlink(p)


@contextlib.contextmanager
def write_lock(index_dir: str, timeout_s: float = 60.0):
    """Hold the index's single-writer lock for the duration of a mutation.

    Reentrant within a thread (nested mutating calls compose); serializes
    threads within the process via an RLock and processes via flock.
    Raises :class:`IndexLockedError` if another process still holds the
    lock after ``timeout_s``. Override the default wait with the
    ``AVR_LOCK_TIMEOUT_S`` env var (cluster jobs queueing on one index)."""
    timeout_s = float(os.environ.get("AVR_LOCK_TIMEOUT_S", timeout_s))
    st = _state(index_dir)
    acquired_rlock = st["rlock"].acquire(timeout=timeout_s)
    if not acquired_rlock:
        raise IndexLockedError(
            f"index {index_dir!r} is write-locked by another thread of "
            f"this process; waited {timeout_s:.1f}s"
        )
    try:
        if st["depth"] == 0:
            path = lock_path(index_dir)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                _flock_exclusive(fd, timeout_s, index_dir)
            except BaseException:
                os.close(fd)
                raise
            # diagnostics only — never read for correctness. Padding to the
            # file's current size too covers any longer earlier payload, so
            # json.load (which skips trailing spaces) always parses it.
            payload = json.dumps(
                {"pid": os.getpid(), "host": socket.gethostname(),
                 "acquired_at": time.time()}
            ).encode()
            width = max(_LOCK_PAYLOAD_BYTES, os.fstat(fd).st_size)
            os.pwrite(fd, payload.ljust(width), 0)
            st["fd"] = fd
        st["depth"] += 1
        try:
            yield
        finally:
            st["depth"] -= 1
            if st["depth"] == 0:
                fd, st["fd"] = st["fd"], None
                os.close(fd)  # closing the fd releases the flock
    finally:
        st["rlock"].release()
