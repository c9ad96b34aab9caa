"""Posting-list codec: delta encoding + varbyte compression + block-max metadata.

This is the from-scratch replacement for the index format the reference
delegates to Solr/Lucene (every ``*_text`` field it posts,
ASpaceObject.java:253). Layout per term:

- postings sorted by doc_id ascending, split into blocks of ``BLOCK_SIZE``;
- per block payload: varbyte(delta doc_ids) + varbyte(tfs) + varbyte(dls),
  where the first delta of a block is taken from the previous block's last
  doc_id (blocks decode independently given the block table);
- per block metadata (the skip list): last_doc, n, max_tf, min_dl and the
  three payload byte-lengths. ``(max_tf, min_dl)`` give an avgdl-free
  block-max score bound at query time:
  ``ub = idf * max_tf*(k1+1) / (max_tf + k1*(1-b+b*min_dl/avgdl))`` — monotone
  up in tf and down in dl, hence a true upper bound for every posting in the
  block.

Layout per segment (``postings.bin``): the terms' payloads back to back in
term order, so the whole file is the three streams of the segment — doc
deltas (each term's first delta is its absolute doc id), tfs, dls —
interleaved block by block as doc|tf|dl. ``encode_segment`` writes a
segment in one pass: one varbyte encode per stream, per-block byte counts
and bounds from ``reduceat`` over the global block starts, and one gather
that interleaves the streams. ``decode_segment`` is its inverse (one
scatter back to stream order, one varbyte decode per stream).
``decode_posting_list`` decodes the selected blocks of one term — the
query-time access pattern.

Both codec directions are vectorized numpy (no per-value Python loop): encode
loops only over byte-position (<=10 iterations), decode reconstructs values
with a segmented bitwise-or reduce.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128


def _varbyte_nbytes(v: np.ndarray) -> np.ndarray:
    """Per-value encoded byte count (>=1), vectorized."""
    nbytes = np.ones(v.shape, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += (tmp > 0).astype(np.int64)
        tmp >>= np.uint64(7)
    return nbytes


def varbyte_encode(values: np.ndarray, nbytes: np.ndarray | None = None) -> bytes:
    """Varbyte-encode a uint64/int64 array (values must be >= 0).

    Format: little-endian base-128; all bytes except the last of a value have
    the continuation bit (0x80) set. ``nbytes`` may be precomputed with
    ``_varbyte_nbytes`` (callers that also need per-block byte sums).
    """
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    if nbytes is None:
        nbytes = _varbyte_nbytes(v)
    total = int(nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    starts = np.concatenate([[0], np.cumsum(nbytes)[:-1]])
    max_n = int(nbytes.max())
    for j in range(max_n):
        mask = nbytes > j
        idx = starts[mask] + j
        byte = ((v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] - 1 > j).astype(np.uint8) << 7
        out[idx] = byte | cont
    return out.tobytes()


def varbyte_decode(buf, n_values: int | None = None) -> np.ndarray:
    """Decode a varbyte buffer (bytes-like or uint8 array) back to a uint64
    array (vectorized). Raises ValueError on a truncated stream (last byte
    still has the continuation bit) or a value count other than
    ``n_values``."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    if b[-1] & 0x80:
        raise ValueError("truncated varbyte stream: last value has no final byte")
    ends = np.flatnonzero(b < 0x80)
    n = len(ends)
    if n_values is not None and n != n_values:
        raise ValueError(f"decoded {n} values, expected {n_values}")
    starts = np.zeros(n, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    # shift of each byte = 7 * its position within its value: a cumsum of
    # +7 steps that drops back to 0 at every value start (uint64 wraps, so
    # the negative step is exact)
    shift = np.full(b.size, 7, dtype=np.uint64)
    shift[0] = 0
    shift[starts[1:]] = np.uint64(7) * (starts[:-1] - ends[:-1]).astype(np.uint64)
    np.cumsum(shift, out=shift)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64)
    contrib <<= shift
    # the 7-bit groups of a value never overlap, so OR-reducing is exact
    return np.bitwise_or.reduceat(contrib, starts)


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Exclusive cumsum: start offset of each run of the given lengths."""
    out = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=out[1:])
    return out


def _rebase(deltas: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Undo delta coding run by run: the first delta of each run is
    absolute. One cumsum; modular arithmetic keeps it exact for uint64."""
    csum = np.cumsum(deltas)
    starts = _starts(lengths)
    entering = np.zeros(len(lengths), dtype=csum.dtype)
    entering[1:] = csum[starts[1:] - 1]
    return csum - np.repeat(entering, lengths)


def encode_position_deltas(tfs: np.ndarray, flat_positions: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode per-posting token positions into ONE varbyte stream.

    ``flat_positions``: concatenation of every posting's ascending in-doc
    token positions, posting order matching ``tfs`` (so posting i owns the
    slice ``[cumsum(tfs)[i-1] : cumsum(tfs)[i]]``). Within a posting the
    first position is stored absolute and the rest as deltas (ascending ⇒
    strictly positive), so any posting — and hence any BLOCK_SIZE block of
    postings — decodes independently.

    Returns (payload, per_posting_nbytes). Vectorized: one subtract, one
    varbyte_encode call, one reduceat.
    """
    tfs = np.asarray(tfs, dtype=np.int64)
    pos = np.asarray(flat_positions, dtype=np.int64)
    if pos.size == 0:
        return b"", np.zeros(len(tfs), dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(tfs)[:-1]])
    deltas = pos.astype(np.uint64).copy()
    deltas[1:] -= pos[:-1].astype(np.uint64)  # boundary wraps overwritten below
    deltas[starts] = pos[starts].astype(np.uint64)
    nb = _varbyte_nbytes(deltas)
    payload = varbyte_encode(deltas, nb)
    per_posting = np.add.reduceat(nb, starts).astype(np.int64)
    return payload, per_posting


def position_bytes_array(tfs: np.ndarray, flat_positions: np.ndarray):
    """Per-posting encoded-position byte strings as a zero-copy Arrow
    BinaryArray (no per-posting Python slicing): offsets come straight from
    the per-posting byte counts."""
    import pyarrow as pa

    payload, per_posting = encode_position_deltas(tfs, flat_positions)
    offsets = np.zeros(len(per_posting) + 1, dtype=np.int32)
    np.cumsum(per_posting, out=offsets[1:])
    return pa.BinaryArray.from_buffers(
        pa.binary(), len(per_posting),
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(payload)],
    )


def decode_positions(
    pos_payload: bytes | memoryview,
    pos_bytes: np.ndarray,
    tfs: np.ndarray,
    block_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Decode (a subset of) a term's position blocks -> flat positions array
    aligned with the postings that ``decode_posting_list`` returned for the
    SAME ``block_mask`` (posting i owns ``tfs``-cumsum slice i).

    ``pos_bytes``: per-block position-payload byte counts (block table);
    ``tfs``: the decoded tfs of the SELECTED blocks (value counts per
    posting). One varbyte_decode call; delta rebase per posting is the same
    segmented-cumsum trick as the doc-id rebase.
    """
    tfs = np.asarray(tfs, dtype=np.int64)
    n_blocks = len(pos_bytes)
    offs = np.concatenate([[0], np.cumsum(pos_bytes)[:-1]])
    sel = np.arange(n_blocks) if block_mask is None else np.flatnonzero(block_mask)
    total = int(tfs.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    mv = memoryview(pos_payload)
    bufs = [mv[int(offs[bi]) : int(offs[bi]) + int(pos_bytes[bi])] for bi in sel]
    deltas = varbyte_decode(b"".join(bufs), total).astype(np.int64)
    return _rebase(deltas, tfs)


BLOCK_COLUMNS = ("last_doc", "n", "max_tf", "min_dl", "doc_bytes", "tf_bytes", "dl_bytes")


def _interleave_index(doc_bytes, tf_bytes, dl_bytes) -> np.ndarray:
    """Gather index from stream order (every doc byte, then every tf byte,
    then every dl byte) to payload order (doc|tf|dl per block)."""
    n_doc, n_tf = int(doc_bytes.sum()), int(tf_bytes.sum())
    sizes = np.stack([doc_bytes, tf_bytes, dl_bytes], axis=1).ravel()
    src = np.stack([
        _starts(doc_bytes),
        n_doc + _starts(tf_bytes),
        n_doc + n_tf + _starts(dl_bytes),
    ], axis=1).ravel()
    return np.repeat(src - _starts(sizes), sizes) + np.arange(int(sizes.sum()))


def encode_segment(doc_ids, tfs, dls, starts, ends):
    """Encode every term of a segment in one pass.

    ``doc_ids``/``tfs``/``dls``: the segment's postings, (term, doc_id)
    ascending; term t owns ``[starts[t], ends[t])`` (df >= 1, no gaps).

    Returns (payload, terms, blocks): ``terms`` holds per-term
    ``n_blocks`` (int32), ``block_start``, ``payload_off``, ``payload_len``
    (int64); ``blocks`` holds the ``BLOCK_COLUMNS`` arrays in term order
    (``n`` int32, the rest int64; all int64 for an empty segment, the
    on-disk format of an empty segment's block table).
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if len(doc_ids) == 0:
        e = np.empty(0, dtype=np.int64)
        terms = {"n_blocks": np.empty(0, dtype=np.int32), "block_start": e,
                 "payload_off": e, "payload_len": e}
        return b"", terms, {k: e for k in BLOCK_COLUMNS}
    n_blocks = (ends - starts + BLOCK_SIZE - 1) // BLOCK_SIZE
    block_start = _starts(n_blocks)
    # global first posting of every block: its term's start plus
    # BLOCK_SIZE per earlier block of the same term
    within = np.arange(int(n_blocks.sum())) - np.repeat(block_start, n_blocks)
    bstart = np.repeat(starts, n_blocks) + within * BLOCK_SIZE
    bend = np.minimum(bstart + BLOCK_SIZE, np.repeat(ends, n_blocks))

    # one delta stream for the whole segment: a block's first delta is the
    # previous block's last doc of the same term, i.e. the plain
    # consecutive delta, and each term's first delta is its absolute doc id
    ids_u = doc_ids.astype(np.uint64)
    deltas = np.empty_like(ids_u)
    deltas[1:] = ids_u[1:] - ids_u[:-1]
    deltas[starts] = ids_u[starts]
    streams = (deltas, tfs.astype(np.uint64), dls.astype(np.uint64))
    nbytes = [_varbyte_nbytes(v) for v in streams]
    encoded = b"".join(varbyte_encode(v, nb) for v, nb in zip(streams, nbytes))
    doc_bytes, tf_bytes, dl_bytes = (np.add.reduceat(nb, bstart) for nb in nbytes)
    gather = _interleave_index(doc_bytes, tf_bytes, dl_bytes)
    payload = np.frombuffer(encoded, dtype=np.uint8)[gather].tobytes()

    payload_len = np.add.reduceat(doc_bytes + tf_bytes + dl_bytes, block_start)
    terms = {
        "n_blocks": n_blocks.astype(np.int32),
        "block_start": block_start,
        "payload_off": _starts(payload_len),
        "payload_len": payload_len,
    }
    blocks = {
        "last_doc": doc_ids[bend - 1],
        "n": (bend - bstart).astype(np.int32),
        "max_tf": np.maximum.reduceat(tfs, bstart),
        "min_dl": np.minimum.reduceat(dls, bstart),
        "doc_bytes": doc_bytes,
        "tf_bytes": tf_bytes,
        "dl_bytes": dl_bytes,
    }
    return payload, terms, blocks


def decode_segment(reader):
    """Decode every posting of a segment (a ``SegmentReader``) in one pass:
    one scatter of ``postings.bin`` back to stream order, one varbyte decode
    per stream, and a term-segmented cumsum that rebases the doc deltas.

    Returns (doc_ids, tfs, dls, df, positions): flat int64 arrays in
    (term, doc_id) order, per-term df (term order of ``reader.terms``), and
    the flat in-doc token positions (posting i owns the next ``tfs[i]``
    values) when the segment stores them, else None.
    """
    blocks = reader.blocks
    df = reader.terms["df"].to_numpy().astype(np.int64)
    total = int(df.sum())
    db, tb = blocks["doc_bytes"], blocks["tf_bytes"]
    streams = np.empty(len(reader.payload), dtype=np.uint8)
    streams[_interleave_index(db, tb, blocks["dl_bytes"])] = reader.payload
    n_doc, n_tf = int(db.sum()), int(tb.sum())
    deltas = varbyte_decode(streams[:n_doc], total)
    tfs = varbyte_decode(streams[n_doc : n_doc + n_tf], total).astype(np.int64)
    dls = varbyte_decode(streams[n_doc + n_tf :], total).astype(np.int64)
    doc_ids = _rebase(deltas, df).astype(np.int64)
    positions = None
    if reader.has_positions:
        pos = varbyte_decode(reader.pos_payload, int(tfs.sum())).astype(np.int64)
        positions = _rebase(pos, tfs)
    return doc_ids, tfs, dls, df, positions


def encode_posting_list(
    doc_ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray
) -> tuple[bytes, dict[str, np.ndarray]]:
    """Encode one term's postings (doc_id-ascending): a one-term
    ``encode_segment``. Returns (payload_bytes, block_table)."""
    n = len(doc_ids)
    assert n > 0
    payload, _terms, blocks = encode_segment(doc_ids, tfs, dls, [0], [n])
    return payload, blocks


def decode_posting_list(
    payload: bytes | memoryview,
    block_table: dict[str, np.ndarray],
    block_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode (a subset of) a term's blocks -> (doc_ids, tfs, dls).

    ``block_mask`` selects blocks (block-max / skip-driven decode); omitted
    means all. Payload must start at the term's first block.

    Each of the three streams is gathered across the selected blocks and
    decoded in ONE varbyte call (per-block numpy calls on 128-element arrays
    are overhead-bound — measured ~10× slower); block-relative doc deltas are
    then rebased vectorized.
    """
    last_doc = block_table["last_doc"]
    bn = block_table["n"]
    db, tb, lb = block_table["doc_bytes"], block_table["tf_bytes"], block_table["dl_bytes"]
    n_blocks = len(bn)
    block_sizes = db + tb + lb
    offs = np.concatenate([[0], np.cumsum(block_sizes)[:-1]])
    sel = np.arange(n_blocks) if block_mask is None else np.flatnonzero(block_mask)
    if len(sel) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    mv = memoryview(payload)
    doc_bufs, tf_bufs, dl_bufs = [], [], []
    for bi in sel:
        o = int(offs[bi])
        nd, nt, nl = int(db[bi]), int(tb[bi]), int(lb[bi])
        doc_bufs.append(mv[o : o + nd])
        tf_bufs.append(mv[o + nd : o + nd + nt])
        dl_bufs.append(mv[o + nd + nt : o + nd + nt + nl])
    n_sel = bn[sel].astype(np.int64)
    total = int(n_sel.sum())
    deltas = varbyte_decode(b"".join(doc_bufs), total).astype(np.int64)
    tfs = varbyte_decode(b"".join(tf_bufs), total).astype(np.int64)
    dls = varbyte_decode(b"".join(dl_bufs), total).astype(np.int64)
    # rebase: global cumsum of deltas, then per selected block subtract the
    # cumsum entering the block and add its true base (prev block's last doc)
    csum = np.cumsum(deltas)
    starts = np.concatenate([[0], np.cumsum(n_sel)[:-1]])
    entering = np.where(starts > 0, csum[starts - 1], 0)
    bases = np.where(sel > 0, last_doc[np.maximum(sel - 1, 0)], 0)
    correction = np.repeat(bases - entering, n_sel)
    docs = csum + correction
    return docs, tfs, dls
