"""Content hashing + stable doc-id derivation.

The reference's transform-hash cache uses md5 of the XSLT files
(IndexRecordsForV4.java:154-168); our per-row invariant (input_hint) is
``sha256(content)`` equality vs the source table, and doc ids must be stable
across any partitioning / parallelism level (SURVEY.md §7.4), so they derive
from row identity — never from block order.

At 10^12-doc scale a 63-bit id has a nonzero birthday-collision expectation;
the production layout would widen to 128-bit (or (shard, local_id)) — the
codec below isolates that choice in one place.
"""

from __future__ import annotations

import hashlib

import numpy as np


def sha256_hex(texts) -> np.ndarray:
    """Vector of sha256 hex digests (utf-8) for a string array."""
    h = hashlib.sha256
    return np.fromiter(
        (h(t.encode("utf-8")).hexdigest() for t in texts), dtype=object, count=len(texts)
    )


# byte -> its two lowercase hex digits
_HEX = np.frombuffer(bytes.hex(bytes(range(256))).encode(), np.uint8).reshape(256, 2)


def sha256_hex_arrow(col):
    """``sha256_hex`` of an Arrow string or large_string (chunked) array
    without nulls, as an Arrow string array: each row's UTF-8 bytes are
    hashed straight from the values buffer through its offsets, and the
    digests are hex-encoded in one table lookup, so no row becomes a
    Python string."""
    import pyarrow as pa

    from .tokenize import value_offsets

    digests = bytearray()
    h = hashlib.sha256
    for chunk in (col.chunks if isinstance(col, pa.ChunkedArray) else [col]):
        if not len(chunk):
            continue
        data = memoryview(chunk.buffers()[2] or b"")
        off = value_offsets(chunk).tolist()
        for a, b in zip(off[:-1], off[1:]):
            digests += h(data[a:b]).digest()
    n = len(digests) // 32
    hexed = _HEX[np.frombuffer(digests, np.uint8)]
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(np.arange(0, 64 * n + 1, 64, dtype=np.int32)),
        pa.py_buffer(hexed.tobytes()))


def doc_id_from_key(repos, paths, commits) -> np.ndarray:
    """Stable positive int64 doc id from the (repo, path, commit) natural key.

    First 8 bytes of sha256("repo\\0path\\0commit"), masked to 63 bits.
    """
    h = hashlib.sha256
    out = np.empty(len(repos), dtype=np.int64)
    for i, (r, p, c) in enumerate(zip(repos, paths, commits)):
        d = h(f"{r}\0{p}\0{c}".encode("utf-8")).digest()
        out[i] = int.from_bytes(d[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF
    return out


def md5_u64(s: str) -> "np.uint64":
    """First 16 hex chars of md5 as uint64 — the SQL-REPRODUCIBLE 64-bit
    hash contract shared by SimHash, the HLL sketch, and their DuckDB
    oracles (`CAST(('0x' || substr(md5(v), 1, 16)) AS UBIGINT)`)."""
    import hashlib

    import numpy as np

    return np.uint64(int(hashlib.md5(s.encode()).hexdigest()[:16], 16))
