"""Posting-list codec, format v4: segment-local doc ordinals, ordinal
gaps and tfs bit-packed per block at the width the block needs, and
block-max metadata.

This is the from-scratch replacement for the index format the reference
delegates to Solr/Lucene (every ``*_text`` field it posts,
ASpaceObject.java:253). Like Lucene, a segment numbers its docs 0…n−1 and
keeps one length norm per doc, postings never repeat per-doc values, and
each block of ``BLOCK_SIZE`` postings is packed at the width its largest
value needs (Lucene's ``ForUtil``; binary packing, Anh & Moffat).

Layout per segment:

- ``docs.bin`` — the doc table: varbyte(doc-id deltas, the first absolute)
  then varbyte(doc lengths), one value each per doc. Ordinal ``o`` is the
  ``o``-th smallest doc id of the segment, so ordinal order IS doc-id order
  and decoding maps ordinals back with two gathers
  (``doc_map[ords]``, ``dl_map[ords]``);
- ``postings.bin`` — the terms' payloads back to back in term order, then
  ``TAIL`` zero bytes. Per term, postings sorted by ordinal and cut into
  blocks of ``BLOCK_SIZE``; the term's payload is every block's ordinal
  run, then every block's tf run. A block's ordinal run holds its ordinal
  gaps at ``ord_bits`` bits each (the bits of its largest gap); a term's
  first gap is its absolute ordinal and a block's first gap is taken from
  the previous block's last ordinal (``last_ord`` in the block table), so
  blocks decode independently. A block's tf run holds tf − 1 at
  ``bit_width(max_tf − 1)`` bits each: a block whose tfs are all 1 takes
  no bytes. Values are packed LSB first, little-endian, and each run is
  padded to a whole byte;
- ``terms.parquet`` — term, df, cf, nothing else (``TERM_COLUMNS``; the
  ``term`` column front-coded, as Lucene's block-tree dictionary does). A
  term's blocks number ceil(df / BLOCK_SIZE) and follow the previous
  term's in the block table, each holds ``BLOCK_SIZE`` postings but its
  last; ``term_layout`` derives every run's byte count ceil(n·width / 8)
  and every offset from them once per segment open, with a few
  vectorised prefix sums, and ``term_bounds`` a term's max_tf and min_dl
  as the max / min over its blocks';
- ``blocks.parquet`` — the skip list, one row per block in term order:
  ``last_ord`` (the block's last ordinal), ``max_tf``, ``min_dl`` and
  ``ord_bits`` (uint8; plus ``pos_bytes`` when positional). The block
  table is the one copy of the impacts, as in Lucene's skip data.
  ``(max_tf, min_dl)`` give an avgdl-free block-max score bound at query
  time:
  ``ub = idf * max_tf*(k1+1) / (max_tf + k1*(1-b+b*min_dl/avgdl))`` —
  monotone up in tf and down in dl, hence a true upper bound for every
  posting in the block (and over a term's blocks, for the term).

``encode_segment`` writes a segment in one pass: one ``np.unique`` for the
ordinals, per-block widths and bounds from ``reduceat`` over the global
block starts, and one pack per stream (ordinal gaps, tfs) that ORs each
value into a uint64 bit stream (``_pack_runs``). ``decode_segment`` is its
inverse for a whole segment or for a subset of its terms (the query batch
pass reads all of a batch's terms in one segment this way): every value is
one 64-bit read at its byte offset in a stride-1 view of ``postings.bin``
(``packed_view``), a shift and a mask. ``decode_posting_list`` decodes
selected blocks of one term (phrase candidates).

``docs.bin`` and ``positions.bin`` stay varbyte. Both codec directions are
vectorized numpy (no per-value Python loop): varbyte encode loops only over
byte position (<=10 iterations); varbyte decode takes each value's last
byte and folds in the earlier bytes of the multi-byte values, one byte
position per pass.
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


TERM_COLUMNS = ("df", "cf")
BLOCK_COLUMNS = ("last_ord", "max_tf", "min_dl", "ord_bits")
# the per-block columns ``term_layout`` derives at open
BLOCK_LAYOUT = ("n", "tf_bits", "ord_off", "tf_off")

# the widest packed value: a 64-bit read at a byte offset holds the value
# shifted by up to 7 bits
MAX_BITS = 57
# zero bytes closing ``postings.bin``: a 64-bit read at its last payload
# byte stays inside the file
TAIL = 7


def bit_width(v) -> np.ndarray:
    """Bits each value needs (int64; 0 for 0 and for negatives), exact for
    every int64."""
    x = np.asarray(v, dtype=np.int64)
    out = np.zeros(x.shape, np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = x >> s > 0
        out[big] += s
        x = np.where(big, x >> s, x)
    return out + (x > 0)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i] + sizes[i])``."""
    if len(sizes) == 1:  # one term's blocks: a tenth of the numpy calls
        return np.arange(starts[0], starts[0] + sizes[0])
    sizes = np.asarray(sizes, dtype=np.int64)
    return np.repeat(starts - _starts(sizes), sizes) + np.arange(int(sizes.sum()))


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


def term_layout(df, max_tf, ord_bits) -> dict[str, np.ndarray]:
    """Everything v4 derives instead of storing, from the term dictionary's
    dfs and the block table's ``max_tf`` and ``ord_bits``: per term
    ``n_blocks``, ``block_start`` (its first block-table row) and
    ``payload_off``/``payload_len`` in ``postings.bin``; per block ``n``
    (its posting count), ``tf_bits`` (``bit_width(max_tf - 1)``) and
    ``ord_off``/``tf_off``, where its ordinal and tf runs start. Raises
    ValueError unless the block table holds Σ ceil(df / BLOCK_SIZE) rows,
    every width lies in 0..MAX_BITS and every ``max_tf`` is at least 1."""
    df = np.asarray(df, dtype=np.int64)
    max_tf = np.asarray(max_tf, dtype=np.int64)
    ord_bits = np.asarray(ord_bits).astype(np.int64)
    n_blocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_rows = int(n_blocks.sum())
    if len(ord_bits) != n_rows or len(max_tf) != n_rows:
        raise ValueError(f"block table holds {len(ord_bits)} rows; the "
                         f"term dictionary's dfs need {n_rows}")
    tf_bits = bit_width(max_tf - 1)
    if n_rows and (ord_bits.min() < 0 or max(ord_bits.max(), tf_bits.max())
                   > MAX_BITS or max_tf.min() < 1):
        raise ValueError(f"a block's ord_bits or tf width lies outside "
                         f"0..{MAX_BITS} (or its max_tf below 1)")
    block_start = _starts(n_blocks)
    n = np.full(n_rows, BLOCK_SIZE, np.int64)
    n[block_start + n_blocks - 1] = df - BLOCK_SIZE * (n_blocks - 1)
    # the payload is a sequence of byte-padded runs: per term, its blocks'
    # ordinal runs, then their tf runs; one prefix sum places them all
    ord_seq = np.arange(n_rows) + np.repeat(block_start, n_blocks)
    tf_seq = ord_seq + np.repeat(n_blocks, n_blocks)
    run_bytes = np.empty(2 * n_rows, np.int64)
    run_bytes[ord_seq] = (n * ord_bits + 7) >> 3
    run_bytes[tf_seq] = (n * tf_bits + 7) >> 3
    run_off = _starts(run_bytes)
    payload_off = run_off[2 * block_start] if n_rows else block_start
    return {"n_blocks": n_blocks, "block_start": block_start,
            "payload_off": payload_off,
            "payload_len": np.diff(payload_off, append=int(run_bytes.sum())),
            "n": n, "tf_bits": tf_bits,
            "ord_off": run_off[ord_seq], "tf_off": run_off[tf_seq]}


def term_bounds(df, max_tf, min_dl) -> tuple[np.ndarray, np.ndarray]:
    """Per term, the largest tf and the smallest dl of its postings, from
    the term dictionary's dfs and the block table's ``max_tf`` and
    ``min_dl``: one ``reduceat`` each over the terms' first blocks (a
    term's blocks are contiguous, and every term has at least one)."""
    df = np.asarray(df, dtype=np.int64)
    first = _starts((df + BLOCK_SIZE - 1) // BLOCK_SIZE)
    return (np.maximum.reduceat(np.asarray(max_tf, np.int64), first),
            np.minimum.reduceat(np.asarray(min_dl, np.int64), first))


def _value_bits(run_off: np.ndarray, n: np.ndarray, bits: np.ndarray):
    """The bit position of every value of byte-aligned runs: run i holds
    ``n[i]`` values of ``bits[i]`` bits from byte ``run_off[i]``, so value
    j of the concatenation sits at bit
    ``8·run_off[i] + (j − Σ n[:i])·bits[i]``: no prefix sum over values."""
    bits = np.asarray(bits, np.int64)
    pos = np.arange(int(n.sum()))
    pos *= np.repeat(bits, n)
    pos += np.repeat(8 * run_off - _starts(n) * bits, n)
    return pos


def _pack_runs(words: np.ndarray, values: np.ndarray, run_off, n, bits) -> None:
    """OR ``values`` (int64 or uint64, runs in payload order: monotone bit
    positions, disjoint fields) into ``words``, a little-endian uint64 bit
    stream, LSB first. Values sharing a word are contiguous, so one
    ``bitwise_or.reduceat`` merges them; at most one value crosses into
    each next word."""
    if not len(values):
        return
    pos = _value_bits(run_off, n, bits)
    word = pos >> 6
    shift = (pos & 63).astype(np.uint64)
    values = values.astype(np.uint64)
    first = np.flatnonzero(np.diff(word, prepend=-1))
    words[word[first]] |= np.bitwise_or.reduceat(values << shift, first)
    spill = (values >> np.uint64(1)) >> (np.uint64(63) - shift)
    cross = np.flatnonzero(spill)
    words[word[cross] + 1] |= spill[cross]


def packed_view(buf: np.ndarray) -> np.ndarray:
    """``buf`` (uint8, closed by ``TAIL`` bytes) as a stride-1 little-endian
    int64 view: element i is the 8 bytes from byte i, so a value's bits
    are one gather away. No copy, also over a read-only mmap."""
    n = max(len(buf) - TAIL, 0)
    return np.ndarray((n,), "<i8", buf, 0, (1,)) if n else np.zeros(1, np.int64)


def _unpack_runs(view: np.ndarray, run_off, n, bits) -> np.ndarray:
    """Inverse of ``_pack_runs`` over a ``packed_view`` → int64 values.
    Each value is one 64-bit read at its byte, a shift and a mask (the
    mask drops the sign bits an arithmetic shift brings in). A zero-width
    run may start at the payload's end: it reads the last word instead
    and masks it to 0.

    Indexing the unaligned view costs about 7 ns a value; ``np.take``
    first copies the whole view into an aligned array (8 B per payload
    byte) and then gathers at about 1.4 ns a value, so it pays once the
    values outnumber a quarter of the payload's bytes (a whole-segment
    decode, a batch with head terms)."""
    pos = _value_bits(np.minimum(run_off, len(view) - 1), n, bits)
    at = pos >> 3
    v = view.take(at) if 4 * len(at) > len(view) else view[at]
    pos &= 7
    v >>= pos
    v &= np.repeat((1 << np.asarray(bits, np.int64)) - 1, n)
    return v


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
    the doc table keeps one length per doc), and no block may need more
    than ``MAX_BITS`` bits per value (ValueError: a tf above 2**57).

    Returns (payload, doc_table, n_docs, terms, blocks): ``payload`` is
    the ``postings.bin`` bytes (``TAIL`` included) and ``doc_table`` the
    ``docs.bin`` bytes; ``terms`` holds the ``TERM_COLUMNS`` arrays and
    ``blocks`` the ``BLOCK_COLUMNS`` arrays in term order, int64 but
    ``ord_bits`` (uint8).
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if len(doc_ids) == 0:
        e = np.empty(0, dtype=np.int64)
        return (bytes(TAIL), b"", 0, {k: e for k in TERM_COLUMNS},
                {**{k: e for k in BLOCK_COLUMNS},
                 "ord_bits": np.empty(0, np.uint8)})
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
    n_blocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    bstart = block_firsts(starts, ends)
    bend = np.minimum(bstart + BLOCK_SIZE, np.repeat(ends, n_blocks))

    # ordinal gaps: a block's first gap is taken from the previous block's
    # last ordinal of the same term, i.e. the plain consecutive gap, and
    # each term's first gap is its absolute ordinal
    gaps = np.empty(len(ords), dtype=np.int64)
    gaps[1:] = ords[1:] - ords[:-1]
    gaps[starts] = ords[starts]
    blocks = {
        "last_ord": ords[bend - 1],
        "max_tf": np.maximum.reduceat(tfs, bstart),
        "min_dl": np.minimum.reduceat(dls, bstart),
        "ord_bits": bit_width(np.maximum.reduceat(gaps, bstart)),
    }
    lay = term_layout(df, blocks["max_tf"], blocks["ord_bits"])
    blocks["ord_bits"] = blocks["ord_bits"].astype(np.uint8)
    size = int(lay["payload_len"].sum())
    words = np.zeros((size + TAIL) // 8 + 2, "<u8")
    n = lay["n"]
    _pack_runs(words, gaps, lay["ord_off"], n, blocks["ord_bits"])
    _pack_runs(words, tfs - 1, lay["tf_off"], n, lay["tf_bits"])
    terms = {"df": df, "cf": np.add.reduceat(tfs, starts)}
    return (words.view(np.uint8)[:size + TAIL].tobytes(),
            encode_doc_table(doc_map, dl_map), len(doc_map), terms, blocks)


def _decode_blocks(view, ord_off, tf_off, n, ord_bits, tf_bits, df):
    """Ordinals and tfs (int64) of some blocks, in block order: one unpack
    of their ordinal runs then their tf runs, and the per-term rebase of
    the gaps (``df``: postings per term; each term's first gap is
    absolute)."""
    total = int(df.sum())
    vals = _unpack_runs(view, np.concatenate([ord_off, tf_off]),
                        np.concatenate([n, n]),
                        np.concatenate([ord_bits, tf_bits]))
    tfs = vals[total:]
    tfs += 1
    return _rebase(vals[:total], df), tfs


def decode_segment(reader, rows: np.ndarray | None = None,
                   ordinals: bool = False):
    """Decode every posting of a segment (a ``SegmentReader``) in one pass:
    one vectorised unpack of the ordinal and tf runs of its blocks straight
    from ``postings.bin``, a term-segmented cumsum that rebases the
    ordinal gaps, and the two doc-table gathers.

    Returns (doc_ids, tfs, dls, df, positions): flat int64 arrays in
    (term, doc_id) order, per-term df (term order of ``reader.terms``), and
    the flat in-doc token positions (posting i owns the next ``tfs[i]``
    values) when the segment stores them, else None.

    ``rows``: decode only these term rows of ``reader.terms``, in the given
    order (the query path: a batch's terms in one pass); ``df`` is then
    theirs and positions are not decoded (None). ``ordinals``: return the
    segment ordinals in place of the doc ids (``reader.doc_map[ords]``).
    """
    cols, blk = reader.term_cols, reader.blocks
    if rows is None:
        df, sel = cols["df"], slice(None)
    else:
        df = cols["df"][rows]
        sel = _ranges(cols["block_start"][rows], cols["n_blocks"][rows])
    ords, tfs = _decode_blocks(
        reader.words, *(blk[c][sel] for c in ("ord_off", "tf_off", "n",
                                              "ord_bits", "tf_bits")), df)
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
    ``encode_segment``. Returns (payload_bytes, block_table) like
    ``SegmentReader.term_entry``'s: the term's payload without the
    segment's ``TAIL``, and its block rows with the ``BLOCK_LAYOUT``
    columns and the doc table as ``doc_map``/``dl_map``."""
    n = len(doc_ids)
    assert n > 0
    payload, _docs, _n_docs, _terms, blocks = encode_segment(doc_ids, tfs, dls, [0], [n])
    layout = term_layout([n], blocks["max_tf"], blocks["ord_bits"])
    # one term's doc ids are unique and ascending: they ARE its doc map
    return payload[:-TAIL], {
        **blocks, **{k: layout[k] for k in BLOCK_LAYOUT},
        "doc_map": np.asarray(doc_ids, dtype=np.int64),
        "dl_map": np.asarray(dls, dtype=np.int64)}


def decode_posting_list(
    payload: bytes | memoryview,
    block_table: dict[str, np.ndarray],
    block_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode (a subset of) a term's blocks -> (doc_ids, tfs, dls).

    ``block_table``: the term's block rows with their ``BLOCK_LAYOUT``
    columns (run offsets in its segment's ``postings.bin``: the first
    block's ordinal run starts the term's payload) plus its segment's
    ``doc_map`` and ``dl_map``. ``block_mask`` selects blocks (block-max
    / skip-driven decode); omitted means all. ``payload`` must start at
    the term's first block and may end at its last byte
    (``term_entry``'s): it is copied once behind a zero tail.

    The selected blocks' gaps are unpacked and summed as one run; a masked
    decode then rebases each block from the previous block's ``last_ord``
    (a term's first gap is absolute), and the doc table maps ordinals to
    doc ids and dls with two gathers.
    """
    bt = block_table
    sel = slice(None) if block_mask is None else np.flatnonzero(block_mask)
    n = bt["n"][sel]
    raw = np.frombuffer(payload, dtype=np.uint8)
    buf = np.zeros(len(raw) + TAIL, np.uint8)
    buf[:len(raw)] = raw
    start = bt["ord_off"][0]
    ords, tfs = _decode_blocks(packed_view(buf), bt["ord_off"][sel] - start,
                               bt["tf_off"][sel] - start, n,
                               bt["ord_bits"][sel], bt["tf_bits"][sel],
                               np.array([n.sum()]))
    if block_mask is not None and len(sel):
        first = _starts(n)
        entering = np.where(first > 0, ords[first - 1], 0)
        ords += np.repeat(np.where(sel > 0, bt["last_ord"][sel - 1], 0)
                          - entering, n)
    return bt["doc_map"][ords], tfs, bt["dl_map"][ords]
