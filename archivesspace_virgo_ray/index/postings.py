"""Posting-list codec, format v3: segment-local doc ordinals, varbyte
ordinal deltas, tf runs packed at the width they need, and block-max
metadata.

This is the from-scratch replacement for the index format the reference
delegates to Solr/Lucene (every ``*_text`` field it posts,
ASpaceObject.java:253). Like Lucene, a segment numbers its docs 0…n−1 and
keeps one length norm per doc, postings never repeat per-doc values, and a
tf run takes only the bits its values need.

Layout per segment:

- ``docs.bin`` — the doc table: varbyte(doc-id deltas, the first absolute)
  then varbyte(doc lengths), one value each per doc. Ordinal ``o`` is the
  ``o``-th smallest doc id of the segment, so ordinal order IS doc-id order
  and decoding maps ordinals back with two gathers
  (``doc_map[ords]``, ``dl_map[ords]``);
- ``postings.bin`` — the terms' payloads back to back in term order. Per
  term, postings sorted by ordinal and cut into blocks of ``BLOCK_SIZE``;
  the term's payload is varbyte(ordinal deltas) of every block, then its
  tf run. Each term's first delta is its absolute ordinal and a block's
  first delta is taken from the previous block's last ordinal
  (``last_ord`` in the block table), so blocks decode independently. The
  term's ``max_tf`` picks its tf run's class (``tf_class``): 1 → no bytes
  at all (every tf is 1); ≤ 16 → one nibble of tf − 1 per posting, low
  nibble first, the term's run padded to a whole byte, so a full block
  is 64 bytes at a fixed offset; otherwise varbyte(tfs);
- ``terms.parquet`` — term, df, cf, max_tf, min_dl, nothing else. A
  term's blocks number ceil(df / BLOCK_SIZE) and follow the previous
  term's in the block table, each holds ``BLOCK_SIZE`` postings but its
  last, and its payload offset and length are prefix sums of the block
  table's byte counts: ``term_layout`` derives them once per segment open
  with a few vectorised prefix sums;
- ``blocks.parquet`` — the skip list, one row per block in term order:
  ``last_ord`` (the block's last ordinal), ``max_tf``, ``min_dl`` and the
  byte counts of its ordinal deltas and its tf run (plus ``pos_bytes``
  when positional). ``(max_tf, min_dl)`` give an avgdl-free block-max
  score bound at query time:
  ``ub = idf * max_tf*(k1+1) / (max_tf + k1*(1-b+b*min_dl/avgdl))`` —
  monotone up in tf and down in dl, hence a true upper bound for every
  posting in the block.

``encode_segment`` writes a segment in one pass: one ``np.unique`` for the
ordinals, one varbyte encode for the ordinal deltas and one for the wide tf
runs, one nibble pack for the narrow ones, per-block byte counts and bounds
from ``reduceat`` over the global block starts, and one scatter that lays
the runs out term by term. ``decode_segment`` is its inverse (one gather
back to stream order, one varbyte decode, one nibble unpack), for a whole
segment or for a subset of its terms: the query batch pass reads all of a
batch's terms in one segment this way, its rows grouped by tf class, so
the decoded tf runs line up without a scatter. ``decode_posting_list``
decodes selected blocks of one term (phrase candidates): it gathers the
selected blocks' bytes with one index first.

Both codec directions are vectorized numpy (no per-value Python loop): encode
loops only over byte-position (<=10 iterations); decode takes each value's
last byte and folds in the earlier bytes of the multi-byte values, one
byte position per pass.
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
    if n == b.size:  # every value is one byte (small deltas and tfs)
        return b.astype(np.uint64)
    # a value's last byte holds its top 7 bits; fold the earlier bytes of
    # the multi-byte values in, one byte position per pass (at most 10),
    # so the work is per byte of the long values, not per byte
    out = b[ends].astype(np.uint64)
    lens = np.empty_like(ends)
    lens[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=lens[1:])
    idx = np.flatnonzero(lens > 1)
    j = 1
    while len(idx):
        low = (b[ends[idx] - j] & np.uint8(0x7F)).astype(np.uint64)
        out[idx] = (out[idx] << np.uint64(7)) | low
        j += 1
        idx = idx[lens[idx] > j]
    return out


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Exclusive cumsum: start offset of each run of the given lengths."""
    out = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=out[1:])
    return out


def _rebase(deltas: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Undo delta coding run by run: the first delta of each run is
    absolute. One cumsum; modular arithmetic keeps it exact for uint64."""
    csum = np.cumsum(deltas)
    if len(lengths) == 1:  # one run: the cumsum is already absolute
        return csum
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
    posting). One gather, one varbyte_decode call; delta rebase per posting
    is the same segmented-cumsum trick as the ordinal rebase.
    """
    tfs = np.asarray(tfs, dtype=np.int64)
    total = int(tfs.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    pos_bytes = np.asarray(pos_bytes, dtype=np.int64)
    offs = _starts(pos_bytes)
    if block_mask is not None:
        sel = np.flatnonzero(block_mask)
        offs, pos_bytes = offs[sel], pos_bytes[sel]
    buf = np.frombuffer(pos_payload, dtype=np.uint8)[_ranges(offs, pos_bytes)]
    deltas = varbyte_decode(buf, total).astype(np.int64)
    return _rebase(deltas, tfs)


# tf-run classes (``tf_class``), in the order a class-grouped decode lays
# the runs out: varbyte, one nibble per posting, none (every tf is 1)
TF_WIDE, TF_NIBBLE, TF_ONES = 0, 1, 2
NIBBLE_MAX_TF = 16
_NARROW_CLASSES = np.array([TF_NIBBLE, TF_ONES], np.int8)

TERM_COLUMNS = ("df", "cf", "max_tf", "min_dl")
BLOCK_COLUMNS = ("last_ord", "max_tf", "min_dl", "ord_bytes", "tf_bytes")


def tf_class(max_tf) -> np.ndarray:
    """The tf-run class (int8) of terms with these ``max_tf``."""
    max_tf = np.asarray(max_tf)
    return np.where(max_tf <= 1, TF_ONES,
                    np.where(max_tf <= NIBBLE_MAX_TF, TF_NIBBLE, TF_WIDE)
                    ).astype(np.int8)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i] + sizes[i])``."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return np.repeat(starts - _starts(sizes), sizes) + np.arange(int(sizes.sum()))


def _stream_index(ord_off, ord_bytes, tf_off, tf_bytes) -> np.ndarray:
    """Payload positions of some byte runs in stream order: every ordinal
    run (``ord_bytes`` bytes at ``ord_off``), then every tf run."""
    return _ranges(np.concatenate([ord_off, tf_off]),
                   np.concatenate([ord_bytes, tf_bytes]))


def _block_sums(v: np.ndarray, block_start: np.ndarray,
                block_end: np.ndarray) -> np.ndarray:
    """Per term, the sum of a block column over its blocks."""
    csum = np.zeros(len(v) + 1, np.int64)
    np.cumsum(v, out=csum[1:])
    return csum[block_end] - csum[block_start]


def block_firsts(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The first posting of every block of terms owning postings
    ``[starts[t], ends[t])``: a term's start plus ``BLOCK_SIZE`` per
    earlier block of the same term."""
    n_blocks = (ends - starts + BLOCK_SIZE - 1) // BLOCK_SIZE
    within = np.arange(int(n_blocks.sum())) - np.repeat(_starts(n_blocks), n_blocks)
    return np.repeat(starts, n_blocks) + within * BLOCK_SIZE


def term_layout(df, max_tf, ord_bytes, tf_bytes) -> dict[str, np.ndarray]:
    """Everything v3 derives instead of storing, from the term dictionary's
    dfs and max_tfs and the block table's byte counts: per term
    ``tf_class``, ``n_blocks``, ``block_start`` (its first block-table
    row), ``ord_len``/``tf_len`` (the byte lengths of its ordinal run and
    tf run), ``payload_off``/``payload_len`` in ``postings.bin`` and
    ``tf_off``, where its tf run starts; per block ``n``, its posting
    count. Raises ValueError unless the block table holds
    Σ ceil(df / BLOCK_SIZE) rows and every narrow block's tf bytes are its
    class's (none, or ceil(n / 2) nibble bytes)."""
    df = np.asarray(df, dtype=np.int64)
    n_blocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_rows = int(n_blocks.sum())
    if len(ord_bytes) != n_rows or len(tf_bytes) != n_rows:
        raise ValueError(f"block table holds {len(ord_bytes)} rows; the "
                         f"term dictionary's dfs need {n_rows}")
    block_start = _starts(n_blocks)
    block_end = block_start + n_blocks
    n = np.full(n_rows, BLOCK_SIZE, np.int64)
    n[block_end - 1] = df - BLOCK_SIZE * (n_blocks - 1)
    cls = tf_class(max_tf)
    block_cls = np.repeat(cls, n_blocks)
    narrow = block_cls != TF_WIDE
    if (np.where(block_cls == TF_NIBBLE, (n + 1) >> 1, 0)[narrow]
            != tf_bytes[narrow]).any():
        raise ValueError("a narrow block's tf bytes disagree with its "
                         "term's tf class")
    ord_len = _block_sums(ord_bytes, block_start, block_end)
    tf_len = _block_sums(tf_bytes, block_start, block_end)
    payload_off = _starts(ord_len + tf_len)
    return {"tf_class": cls, "n_blocks": n_blocks, "block_start": block_start,
            "ord_len": ord_len, "tf_len": tf_len, "payload_off": payload_off,
            "tf_off": payload_off + ord_len, "payload_len": ord_len + tf_len,
            "n": n}


def _pack_nibbles(v: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Runs of values 0…15 (``counts[i]`` values in run i) as bytes, two
    values per byte, low nibble first; each run padded to a whole byte."""
    nbytes = (counts + 1) >> 1
    pad = np.zeros(2 * int(nbytes.sum()), np.uint8)
    pad[_ranges(2 * _starts(nbytes), counts)] = v
    return pad[0::2] | (pad[1::2] << 4)


# byte -> the two tfs its nibbles hold (low nibble first, each + 1)
_NIBBLE_TFS = np.stack([np.arange(256) % 16, np.arange(256) // 16], axis=1) + 1


def _unpack_tfs(buf: np.ndarray, counts: np.ndarray,
                nbytes: np.ndarray) -> np.ndarray:
    """Inverse of ``_pack_nibbles`` for nibble tf runs (``counts[i]``
    postings in ``nbytes[i]`` bytes) → int64 tfs (nibble + 1). ``buf``
    must hold the runs' bytes exactly (``term_layout`` checks each
    segment's at open)."""
    tfs = np.take(_NIBBLE_TFS, buf, axis=0).ravel()  # faster than [buf]
    even = (counts & 1) == 0
    if not even.all():  # drop the pad nibble closing each odd run
        keep = np.ones(len(tfs), bool)
        ends = np.cumsum(nbytes)
        ends *= 2
        keep[ends - 1] = even
        tfs = tfs[keep]
    return tfs


def encode_doc_table(doc_map: np.ndarray, dl_map: np.ndarray) -> bytes:
    """``docs.bin``: varbyte(doc-id deltas, the first absolute) then
    varbyte(dls). Modular uint64 deltas keep any int64 id exact."""
    ids = doc_map.astype(np.uint64)
    deltas = ids.copy()
    deltas[1:] -= ids[:-1]
    return varbyte_encode(np.concatenate([deltas, dl_map.astype(np.uint64)]))


def decode_doc_table(buf, n_docs: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``encode_doc_table`` -> (doc_map, dl_map), int64."""
    vals = varbyte_decode(buf, 2 * n_docs)
    return np.cumsum(vals[:n_docs]).view(np.int64), vals[n_docs:].astype(np.int64)


def encode_segment(doc_ids, tfs, dls, starts, ends):
    """Encode every term of a segment in one pass.

    ``doc_ids``/``tfs``/``dls``: the segment's postings, (term, doc_id)
    ascending; term t owns ``[starts[t], ends[t])`` (df >= 1, no gaps).
    Every posting of one doc must carry the same dl (ValueError otherwise:
    the doc table keeps one length per doc).

    Returns (payload, doc_table, n_docs, terms, blocks): ``doc_table`` is
    the ``docs.bin`` bytes; ``terms`` holds the ``TERM_COLUMNS`` arrays and
    ``blocks`` the ``BLOCK_COLUMNS`` arrays in term order, all int64.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if len(doc_ids) == 0:
        e = np.empty(0, dtype=np.int64)
        return (b"", b"", 0, {k: e for k in TERM_COLUMNS},
                {k: e for k in BLOCK_COLUMNS})
    doc_map, ords = np.unique(doc_ids, return_inverse=True)
    dl_map = np.empty(len(doc_map), dtype=np.int64)
    dl_map[ords] = dls
    clash = np.flatnonzero(dl_map[ords] != dls)
    if len(clash):
        i = clash[0]
        raise ValueError(
            f"doc id {doc_ids[i]} carries two doc lengths in one segment "
            f"({dls[i]} and {dl_map[ords[i]]})")

    df = ends - starts
    max_tf = np.maximum.reduceat(tfs, starts)
    cls = tf_class(max_tf)
    n_blocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    bstart = block_firsts(starts, ends)
    bend = np.minimum(bstart + BLOCK_SIZE, np.repeat(ends, n_blocks))

    # one ordinal-delta stream for the whole segment: a block's first delta
    # is the previous block's last ordinal of the same term, i.e. the plain
    # consecutive delta, and each term's first delta is its absolute ordinal
    deltas = np.empty(len(ords), dtype=np.int64)
    deltas[1:] = ords[1:] - ords[:-1]
    deltas[starts] = ords[starts]
    ord_nb = _varbyte_nbytes(deltas.astype(np.uint64))
    # tf runs: varbyte bytes for the wide terms' postings, a nibble each
    # for the narrow terms', nothing for the all-ones terms'
    wide_terms = np.flatnonzero(cls == TF_WIDE)
    nib_terms = np.flatnonzero(cls == TF_NIBBLE)
    post_cls = np.repeat(cls, df)
    wide = post_cls == TF_WIDE
    tf_nb = np.zeros(len(tfs), np.int64)
    tf_nb[wide] = _varbyte_nbytes(tfs[wide].astype(np.uint64))
    tf_bytes = np.add.reduceat(tf_nb, bstart)
    nib_blocks = np.repeat(cls == TF_NIBBLE, n_blocks)
    tf_bytes[nib_blocks] = (bend - bstart + 1)[nib_blocks] >> 1
    ord_bytes = np.add.reduceat(ord_nb, bstart)

    # the runs' places in the payload: the layout a reader derives
    lay = term_layout(df, max_tf, ord_bytes, tf_bytes)
    tf_off, tf_len = lay["tf_off"], lay["tf_len"]
    encoded = np.frombuffer(b"".join((
        varbyte_encode(deltas, ord_nb),
        varbyte_encode(tfs[wide], tf_nb[wide]),
        _pack_nibbles(tfs[post_cls == TF_NIBBLE] - 1, df[nib_terms]).tobytes(),
    )), dtype=np.uint8)
    payload = np.empty(len(encoded), dtype=np.uint8)
    payload[_ranges(
        np.concatenate([lay["payload_off"], tf_off[wide_terms], tf_off[nib_terms]]),
        np.concatenate([lay["ord_len"], tf_len[wide_terms], tf_len[nib_terms]]),
    )] = encoded

    terms = {
        "df": df,
        "cf": np.add.reduceat(tfs, starts),
        "max_tf": max_tf,
        "min_dl": np.minimum.reduceat(dls, starts),
    }
    blocks = {
        "last_ord": ords[bend - 1],
        "max_tf": np.maximum.reduceat(tfs, bstart),
        "min_dl": np.minimum.reduceat(dls, bstart),
        "ord_bytes": ord_bytes,
        "tf_bytes": tf_bytes,
    }
    return (payload.tobytes(), encode_doc_table(doc_map, dl_map), len(doc_map),
            terms, blocks)


def decode_segment(reader, rows: np.ndarray | None = None,
                   ordinals: bool = False):
    """Decode every posting of a segment (a ``SegmentReader``) in one pass:
    one gather of ``postings.bin`` back to stream order, one varbyte decode
    of the ordinal deltas and the wide tf runs, one nibble unpack of the
    narrow tf runs, a term-segmented cumsum that rebases the ordinal
    deltas, and the two doc-table gathers.

    Returns (doc_ids, tfs, dls, df, positions): flat int64 arrays in
    (term, doc_id) order, per-term df (term order of ``reader.terms``), and
    the flat in-doc token positions (posting i owns the next ``tfs[i]``
    values) when the segment stores them, else None.

    ``rows``: decode only these term rows of ``reader.terms``, in the given
    order (the query path: a batch's terms in one pass); ``df`` is then
    theirs and positions are not decoded (None). Rows grouped by tf class
    (``term_cols["tf_class"]`` ascending) decode without a scatter of the
    tfs. ``ordinals``: return the segment ordinals in place of the doc ids
    (``reader.doc_map[ords]``).
    """
    cols = reader.term_cols
    df, off, ord_len, tf_off, tf_len, cls = (
        cols[c] if rows is None else cols[c][rows]
        for c in ("df", "payload_off", "ord_len", "tf_off", "tf_len", "tf_class"))
    total = int(df.sum())
    # tf runs in class order (wide, nibble, ones): the rows' own order
    # when they come grouped, else a stable sort of it
    order = None if not (cls[1:] < cls[:-1]).any() else np.argsort(cls, kind="stable")
    g_cls, g_df, g_off, g_len = (
        (cls, df, tf_off, tf_len) if order is None else
        (cls[order], df[order], tf_off[order], tf_len[order]))
    n_wide, n_nib = np.searchsorted(g_cls, _NARROW_CLASSES)
    if len(df) == 1:  # one term's payload is already in stream order
        buf = reader.payload[int(off[0]):int(tf_off[0] + tf_len[0])]
    else:
        buf = reader.payload[_ranges(np.concatenate([off, g_off]),
                                     np.concatenate([ord_len, g_len]))]
    n_vb = len(buf) - int(g_len[n_wide:n_nib].sum())
    n_wide_tfs = int(g_df[:n_wide].sum())
    vals = varbyte_decode(buf[:n_vb], total + n_wide_tfs).view(np.int64)
    ords = _rebase(vals[:total], df)
    tfs = vals[total:]
    if n_wide < len(df):  # then the nibble runs (if any), then the ones
        nib = (_unpack_tfs(buf[n_vb:], g_df[n_wide:n_nib], g_len[n_wide:n_nib])
               if n_nib > n_wide else tfs[:0])
        tfs = np.concatenate([tfs, nib, np.ones(total - len(tfs) - len(nib),
                                                np.int64)])
        if order is not None:
            out = np.empty(total, np.int64)
            out[_ranges(_starts(df)[order], g_df)] = tfs
            tfs = out
    positions = None
    if rows is None and reader.has_positions:
        pos = varbyte_decode(reader.pos_payload, int(tfs.sum())).astype(np.int64)
        positions = _rebase(pos, tfs)
    ids = ords if ordinals else reader.doc_map[ords]
    return ids, tfs, reader.dl_map[ords], df, positions


def encode_posting_list(
    doc_ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray
) -> tuple[bytes, dict[str, np.ndarray]]:
    """Encode one term's postings (doc_id-ascending, unique): a one-term
    ``encode_segment``. Returns (payload_bytes, block_table), the table
    carrying the blocks' posting counts ``n`` and the doc table as
    ``doc_map``/``dl_map`` like ``SegmentReader.term_entry``'s."""
    n = len(doc_ids)
    assert n > 0
    payload, _docs, _n_docs, _terms, blocks = encode_segment(doc_ids, tfs, dls, [0], [n])
    layout = term_layout([n], _terms["max_tf"], blocks["ord_bytes"],
                         blocks["tf_bytes"])
    # one term's doc ids are unique and ascending: they ARE its doc map
    return payload, {**blocks, "n": layout["n"],
                     "doc_map": np.asarray(doc_ids, dtype=np.int64),
                     "dl_map": np.asarray(dls, dtype=np.int64)}


def decode_posting_list(
    payload: bytes | memoryview,
    block_table: dict[str, np.ndarray],
    block_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode (a subset of) a term's blocks -> (doc_ids, tfs, dls).

    ``block_table``: the term's block rows (with their posting counts
    ``n``) plus its segment's ``doc_map`` and ``dl_map``. ``block_mask``
    selects blocks (block-max / skip-driven decode); omitted means all.
    Payload must start at the term's first block.

    A whole term is one varbyte decode of its payload (its tf run too when
    it is wide) and one cumsum. A masked decode gathers the selected
    blocks' ordinal and tf bytes with one index first and rebases each
    selected block from the previous block's ``last_ord``. The doc table
    then maps ordinals to doc ids and dls with two gathers. The term's tf
    class is its blocks' largest ``max_tf``'s.
    """
    bn = block_table["n"]
    ob, tb = block_table["ord_bytes"], block_table["tf_bytes"]
    cls = int(tf_class(block_table["max_tf"].max()))
    buf = np.frombuffer(payload, dtype=np.uint8)
    if block_mask is None:
        sel, n_sel = None, bn
    else:
        sel = np.flatnonzero(block_mask)
        if len(sel) == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        n_sel = bn[sel]
        ob, tb = ob[sel], tb[sel]
        o_all, t_all = block_table["ord_bytes"], block_table["tf_bytes"]
        buf = buf[_stream_index(_starts(o_all)[sel], ob,
                                int(o_all.sum()) + _starts(t_all)[sel], tb)]
    n_sel = n_sel.astype(np.int64)
    total = int(n_sel.sum())
    if cls == TF_WIDE:
        vals = varbyte_decode(buf, 2 * total).view(np.int64)
        deltas, tfs = vals[:total], vals[total:]
    else:
        n_ob = int(ob.sum())
        deltas = varbyte_decode(buf[:n_ob], total).view(np.int64)
        tfs = (_unpack_tfs(buf[n_ob:], n_sel, tb) if cls == TF_NIBBLE
               else np.ones(total, np.int64))
    csum = np.cumsum(deltas)
    if sel is None:
        ords = csum
    else:
        # rebase: per selected block subtract the cumsum entering the block
        # and add its true base (the previous block's last ordinal; a
        # term's first delta is absolute)
        starts = _starts(n_sel)
        entering = np.where(starts > 0, csum[starts - 1], 0)
        bases = np.where(sel > 0,
                         block_table["last_ord"][np.maximum(sel - 1, 0)], 0)
        ords = csum + np.repeat(bases - entering, n_sel)
    return block_table["doc_map"][ords], tfs, block_table["dl_map"][ords]
