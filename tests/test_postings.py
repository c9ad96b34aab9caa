"""Round-trip + property tests for the varbyte / block posting codec."""

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archivesspace_virgo_ray.index.postings import (
    BLOCK_COLUMNS,
    BLOCK_SIZE,
    MAX_BITS,
    TAIL,
    TERM_COLUMNS,
    bit_width,
    decode_positions,
    decode_posting_list,
    decode_segment,
    encode_posting_list,
    encode_segment,
    position_bytes_array,
    term_bounds,
    term_layout,
    varbyte_decode,
    varbyte_encode,
)
from archivesspace_virgo_ray.index.segments import SegmentReader
from archivesspace_virgo_ray.index.segments import write_segment as _write_table


def write_segment(index_dir, shard, bucket, group: pd.DataFrame):
    """``segments.write_segment`` over a triple frame (it takes a table)."""
    types = {"term": pa.string(), "pos": pa.binary()}
    return _write_table(index_dir, shard, bucket, pa.table(
        {c: pa.array(group[c].tolist(), types.get(c, pa.int64()))
         for c in group.columns}))


def test_varbyte_roundtrip_basic():
    vals = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**32, 2**63 - 1], dtype=np.uint64)
    assert (varbyte_decode(varbyte_encode(vals)) == vals).all()


def test_varbyte_empty():
    assert varbyte_encode(np.empty(0, dtype=np.uint64)) == b""
    assert varbyte_decode(b"").size == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=400))
def test_varbyte_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert (varbyte_decode(varbyte_encode(arr)) == arr).all()


def _mk_postings(n, seed=0):
    rng = np.random.default_rng(seed)
    docs = np.sort(rng.choice(np.arange(0, 10 * n + 1, dtype=np.int64), n, replace=False))
    tfs = rng.integers(1, 50, n).astype(np.int64)
    dls = rng.integers(1, 4000, n).astype(np.int64)
    return docs, tfs, dls


def test_posting_list_roundtrip_multi_block():
    n = 3 * BLOCK_SIZE + 17
    docs, tfs, dls = _mk_postings(n, seed=1)
    payload, table = encode_posting_list(docs, tfs, dls)
    d2, t2, l2 = decode_posting_list(payload, table)
    assert (d2 == docs).all() and (t2 == tfs).all() and (l2 == dls).all()
    # block metadata correct: one term's ordinals are its posting indices
    assert table["last_ord"].tolist() == [127, 255, 383, n - 1]
    assert table["doc_map"][table["last_ord"][-1]] == docs[-1]
    assert table["n"].tolist() == [128, 128, 128, 17]
    assert table["max_tf"][0] == tfs[:BLOCK_SIZE].max()
    assert table["min_dl"][0] == dls[:BLOCK_SIZE].min()


def test_posting_list_partial_decode():
    n = 5 * BLOCK_SIZE
    docs, tfs, dls = _mk_postings(n, seed=2)
    payload, table = encode_posting_list(docs, tfs, dls)
    mask = np.array([False, True, False, True, False])
    d2, t2, l2 = decode_posting_list(payload, table, mask)
    expect = np.concatenate([docs[BLOCK_SIZE : 2 * BLOCK_SIZE], docs[3 * BLOCK_SIZE : 4 * BLOCK_SIZE]])
    assert (d2 == expect).all()
    assert len(t2) == 2 * BLOCK_SIZE and len(l2) == 2 * BLOCK_SIZE


def test_posting_list_single():
    payload, table = encode_posting_list(
        np.array([42]), np.array([3]), np.array([100])
    )
    d2, t2, l2 = decode_posting_list(payload, table)
    assert d2.tolist() == [42] and t2.tolist() == [3] and l2.tolist() == [100]


def test_compression_is_compact():
    # dense small deltas should take ~1-2 bytes per doc id
    docs = np.arange(0, 10000, 2, dtype=np.int64)
    tfs = np.ones(len(docs), dtype=np.int64)
    dls = np.full(len(docs), 100, dtype=np.int64)
    payload, _ = encode_posting_list(docs, tfs, dls)
    assert len(payload) < len(docs) * 5


def test_varbyte_roundtrip_ten_byte_values():
    vals = np.array([2**64 - 1, 0, 2**63, 2**56 - 1, 2**56, 5], dtype=np.uint64)
    assert (varbyte_decode(varbyte_encode(vals)) == vals).all()


def test_varbyte_decode_rejects_truncated_stream():
    # the last byte still has the continuation bit: its value never ended
    with pytest.raises(ValueError, match="truncated"):
        varbyte_decode(b"\x81")
    with pytest.raises(ValueError, match="truncated"):
        varbyte_decode(b"\x05\x81", 2)
    with pytest.raises(ValueError, match="truncated"):
        varbyte_decode(varbyte_encode(np.array([300, 2**40], np.uint64))[:-1])


# ---- whole-segment codec ---------------------------------------------------


def _ref_varbyte(v: int) -> bytes:
    out = bytearray()
    while True:
        low, v = v & 0x7F, v >> 7
        out.append(low | 0x80 if v else low)
        if not v:
            return bytes(out)


def _ref_pack(values, width: int) -> bytes:
    """``values`` at ``width`` bits each, LSB first, one bit at a time,
    padded to a whole byte."""
    bits = [(v >> b) & 1 for v in values for b in range(width)]
    bits += [0] * (-len(bits) % 8)
    return bytes(sum(bits[i + j] << j for j in range(8))
                 for i in range(0, len(bits), 8))


def _ref_encode_segment(doc_ids, tfs, dls, starts, ends):
    """Plain-Python v4 encoder: ordinals by ascending doc id, each term's
    first ordinal absolute; per block, the ordinal gaps packed at the
    bits of the block's largest gap and tf - 1 at the bits of its largest
    tf - 1 (``_ref_pack``); a term's payload = its blocks' ordinal runs
    then their tf runs; 7 zero bytes close the payload. Loops over docs,
    terms, blocks, postings, bits and base-128 bytes. Returns (payload,
    doc_table, n_docs, terms, blocks)."""
    doc_ids, tfs, dls = (list(map(int, a)) for a in (doc_ids, tfs, dls))
    dl_of = dict(zip(doc_ids, dls))
    docs = sorted(dl_of)
    ordinal = {d: o for o, d in enumerate(docs)}
    doc_table = b"".join(
        _ref_varbyte((d - (docs[o - 1] if o else 0)) % 2**64)
        for o, d in enumerate(docs)
    ) + b"".join(_ref_varbyte(dl_of[d]) for d in docs)
    payload = bytearray()
    # the stored term columns, and the bounds a reader derives
    terms = {k: [] for k in (*TERM_COLUMNS, "max_tf", "min_dl")}
    blocks = {k: [] for k in BLOCK_COLUMNS}
    for s, e in zip(map(int, starts), map(int, ends)):
        terms["df"].append(e - s)
        terms["cf"].append(sum(tfs[s:e]))
        terms["max_tf"].append(max(tfs[s:e]))
        terms["min_dl"].append(min(dls[s:e]))
        term_ords, term_tfs = bytearray(), bytearray()
        for bs in range(s, e, BLOCK_SIZE):
            be = min(bs + BLOCK_SIZE, e)
            gaps = [ordinal[doc_ids[i]] - ordinal[doc_ids[i - 1]] if i > s
                    else ordinal[doc_ids[i]] for i in range(bs, be)]
            tf1 = [tfs[i] - 1 for i in range(bs, be)]
            ord_bits = max(gaps).bit_length()
            term_ords += _ref_pack(gaps, ord_bits)
            term_tfs += _ref_pack(tf1, max(tf1).bit_length())
            blocks["last_ord"].append(ordinal[doc_ids[be - 1]])
            blocks["max_tf"].append(max(tfs[bs:be]))
            blocks["min_dl"].append(min(dls[bs:be]))
            blocks["ord_bits"].append(ord_bits)
        payload += term_ords + term_tfs
    return bytes(payload) + bytes(7), doc_table, len(docs), terms, blocks


_SEGMENT_DFS = [1, 127, 128, 129, 3 * BLOCK_SIZE + 17]
# block max tfs whose tf - 1 needs 0, 1, 2^k and 2^k + 1 bits
_WIDTH_MAX_TFS = (1, 2, 16, 17, 256, 257)
# the largest tf the codec packs (tf - 1 takes MAX_BITS bits)
_WIDEST_TF = 2**MAX_BITS


def _mk_segment(seed, dfs=_SEGMENT_DFS, max_tfs=None, n_docs=None):
    """Flat (term, doc_id)-ordered postings of one term per df: doc ids
    over the whole int64 range (so ``docs.bin`` holds 10-byte modular
    deltas; -2**63, 0 and 2**63 - 1 shared by several terms), dls
    needing 1-3 varbyte bytes, one dl per doc. Tfs need 1-3 varbyte
    bytes, or, with ``max_tfs``, term i's tfs lie in 1..max_tfs[i] and
    reach it. ``n_docs``: draw the ids from that many docs (large
    ordinal deltas when the dfs are small)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dfs))
    dfs = np.asarray(dfs)[order]
    pool = (None if n_docs is None else
            np.unique(rng.integers(-2**63, 2**63 - 1, n_docs, dtype=np.int64)))
    docs = []
    for df in dfs:
        if pool is None:
            ids = np.unique(rng.integers(-2**63, 2**63 - 1, 2 * df, dtype=np.int64))
        else:
            ids = pool
        ids = np.sort(rng.choice(ids, df, replace=False))
        if df > 3:
            ids[:3] = -2**63, 0, 2**63 - 1
        docs.append(np.sort(ids))
    doc_ids = np.concatenate(docs)
    n = len(doc_ids)

    def vals():
        width = rng.integers(0, 3, n)
        return np.choose(width, [rng.integers(1, 2**7, n),
                                 rng.integers(2**7, 2**14, n),
                                 rng.integers(2**14, 2**21, n)]).astype(np.int64)

    ends = np.cumsum(dfs)
    starts = ends - dfs
    if max_tfs is None:
        tfs = vals()
    else:
        top = np.repeat(np.asarray(max_tfs)[order], dfs)
        tfs = rng.integers(1, top + 1)
        tfs[starts + rng.integers(0, dfs)] = top[starts]  # reach the max
    _uniq, first, inv = np.unique(doc_ids, return_index=True, return_inverse=True)
    dls = vals()[first][inv]
    return doc_ids, tfs.astype(np.int64), dls, starts, ends


def _check_against_reference(doc_ids, tfs, dls, starts, ends):
    payload, doc_table, n_docs, terms, blocks = encode_segment(
        doc_ids, tfs, dls, starts, ends)
    ref_payload, ref_docs, ref_n, ref_terms, ref_blocks = _ref_encode_segment(
        doc_ids, tfs, dls, starts, ends)
    assert payload == ref_payload
    assert doc_table == ref_docs and n_docs == ref_n
    assert set(terms) == set(TERM_COLUMNS) and set(blocks) == set(BLOCK_COLUMNS)
    for got, ref in ((terms, ref_terms), (blocks, ref_blocks)):
        for k, v in got.items():
            assert v.dtype == (np.uint8 if k == "ord_bits" else np.int64), k
            assert v.tolist() == ref[k], k
    # a term's max_tf / min_dl are derived from its blocks, never stored
    max_tf, min_dl = term_bounds(terms["df"], blocks["max_tf"], blocks["min_dl"])
    assert max_tf.tolist() == ref_terms["max_tf"]
    assert min_dl.tolist() == ref_terms["min_dl"]


@pytest.mark.parametrize("seed", range(5))
def test_encode_segment_matches_reference(seed):
    _check_against_reference(*_mk_segment(seed))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       terms=st.lists(st.one_of(
           st.tuples(st.sampled_from([1, 2, 3, 127, 128, 129, 255, 256, 257,
                                      3 * BLOCK_SIZE + 17]),
                     st.sampled_from(_WIDTH_MAX_TFS)),
           # tfs up to 2**57 (57-bit tf runs); few postings keep cf in int64
           st.tuples(st.sampled_from([1, 2, 31]), st.just(_WIDEST_TF))),
           min_size=1, max_size=8),
       n_docs=st.sampled_from([None, 20000]),
       first_alone=st.booleans())
def test_encode_segment_block_widths_match_reference(seed, terms, n_docs,
                                                     first_alone):
    """Tf widths 0, 1, 2^k, 2^k + 1 and 57, odd and even dfs, one-posting
    terms, full and partial last blocks, 10-byte doc-id deltas and wide
    ordinal gaps: the codec equals the plain-Python v4 encoder byte for
    byte. ``first_alone`` adds a one-posting term holding ordinal 0 with
    tf 1: its block has ordinal width 0 and tf width 0, so no bytes."""
    dfs, max_tfs = zip(*terms)
    doc_ids, tfs, dls, starts, ends = _mk_segment(seed, dfs, max_tfs, n_docs)
    if first_alone:
        o = int(np.argmin(doc_ids))
        doc_ids = np.concatenate([doc_ids[o:o + 1], doc_ids])
        tfs = np.concatenate([[1], tfs])
        dls = np.concatenate([dls[o:o + 1], dls])
        starts, ends = np.concatenate([[0], starts + 1]), np.concatenate([[1], ends + 1])
    _check_against_reference(doc_ids, tfs, dls, starts, ends)


def test_encode_segment_rejects_a_width_above_57():
    """A tf of 2**57 + 1 would need a 58-bit tf run, more than a 64-bit read
    at a byte offset holds: the encoder refuses it."""
    docs, dls = np.array([3, 8]), np.array([5, 6])
    encode_segment(docs, np.array([1, _WIDEST_TF]), dls, [0], [2])
    with pytest.raises(ValueError, match=f"0..{MAX_BITS}"):
        encode_segment(docs, np.array([1, _WIDEST_TF + 1]), dls, [0], [2])


def test_encode_segment_empty():
    e = np.empty(0, np.int64)
    payload, doc_table, n_docs, terms, blocks = encode_segment(e, e, e, e, e)
    assert payload == bytes(TAIL) and doc_table == b"" and n_docs == 0
    assert set(terms) == set(TERM_COLUMNS) and set(blocks) == set(BLOCK_COLUMNS)
    for k, v in (*terms.items(), *blocks.items()):
        assert len(v) == 0
        assert v.dtype == (np.uint8 if k == "ord_bits" else np.int64)


@pytest.mark.parametrize("max_tf", (1, 16, 17))
def test_encode_posting_list_is_a_one_term_segment(max_tf):
    doc_ids, tfs, dls, starts, ends = _mk_segment(
        7, dfs=[3 * BLOCK_SIZE + 17], max_tfs=[max_tf])
    payload, table = encode_posting_list(doc_ids, tfs, dls)
    ref_payload, _docs, _n, _terms, ref_blocks = _ref_encode_segment(
        doc_ids, tfs, dls, starts, ends)
    assert payload == ref_payload[:-TAIL]  # a term's payload has no tail
    assert {k: table[k].tolist() for k in BLOCK_COLUMNS} == ref_blocks
    assert table["doc_map"].tolist() == doc_ids.tolist()
    assert table["dl_map"].tolist() == dls.tolist()
    d2, t2, l2 = decode_posting_list(payload, table)
    assert (d2.tolist(), t2.tolist(), l2.tolist()) == (
        doc_ids.tolist(), tfs.tolist(), dls.tolist())


def test_term_layout_derives_offsets():
    """The layout a v4 reader derives: block starts, per-block posting
    counts and tf widths, and run offsets that tile the payload term by
    term (a term's ordinal runs, then its tf runs), each run
    ceil(n * width / 8) bytes."""
    doc_ids, tfs, dls, starts, ends = _mk_segment(
        3, dfs=[1, 2, 129, 256, 3 * BLOCK_SIZE + 17], max_tfs=[1, 16, 17, 16, 1])
    payload, _docs, _n, terms, blocks = encode_segment(doc_ids, tfs, dls, starts, ends)
    lay = term_layout(terms["df"], blocks["max_tf"], blocks["ord_bits"])
    assert sorted(lay["n_blocks"].tolist()) == [1, 1, 2, 2, 4]
    assert lay["block_start"].tolist() == np.concatenate(
        [[0], np.cumsum(lay["n_blocks"])[:-1]]).tolist()
    assert int(lay["n"].sum()) == len(doc_ids)
    assert set(lay["n"].tolist()) <= {1, 2, 17, 128}
    assert lay["tf_bits"].tolist() == [(t - 1).bit_length() for t in blocks["max_tf"].tolist()]
    assert lay["payload_off"].tolist() == np.concatenate(
        [[0], np.cumsum(lay["payload_len"])[:-1]]).tolist()
    assert int(lay["payload_len"].sum()) + TAIL == len(payload)
    runs = []
    for t, (bs, nb) in enumerate(zip(lay["block_start"], lay["n_blocks"])):
        b = np.arange(bs, bs + nb)
        runs += [(lay["ord_off"][i], lay["n"][i] * int(blocks["ord_bits"][i])) for i in b]
        runs += [(lay["tf_off"][i], lay["n"][i] * lay["tf_bits"][i]) for i in b]
        assert lay["ord_off"][bs] == lay["payload_off"][t]
    off = 0
    for run_off, n_bits in runs:
        assert run_off == off
        off += (n_bits + 7) // 8
    assert off == len(payload) - TAIL
    with pytest.raises(ValueError, match="block table holds"):
        term_layout(terms["df"], blocks["max_tf"][:-1], blocks["ord_bits"][:-1])
    for col, bad in (("ord_bits", MAX_BITS + 1), ("max_tf", 0),
                     ("max_tf", _WIDEST_TF + 1)):
        cols = {k: blocks[k].astype(np.int64) for k in ("max_tf", "ord_bits")}
        cols[col][-1] = bad
        with pytest.raises(ValueError, match=f"0..{MAX_BITS}"):
            term_layout(terms["df"], cols["max_tf"], cols["ord_bits"])


def test_bit_width_is_exact():
    v = np.array([0, 1, 2, 3, 4, 255, 256, 2**53 + 1, 2**57 - 1, 2**57,
                  2**63 - 1, -1])
    assert bit_width(v).tolist() == [int(x).bit_length() if x >= 0 else 0
                                     for x in v.tolist()]


def test_a_block_of_width_zero_takes_no_bytes(tmp_path):
    """A one-doc segment whose terms all hold tf 1: every gap is ordinal 0
    and every tf - 1 is 0, so postings.bin is its tail alone, and every
    decoder reads it back."""
    group = pd.DataFrame({"term": ["a", "b", "c"], "doc_id": [7, 7, 7],
                          "tf": [1, 1, 1], "dl": [3, 3, 3]})
    write_segment(str(tmp_path), 0, 0, group)
    r = SegmentReader(str(tmp_path), 0, 0)
    assert bytes(r.payload) == bytes(TAIL)
    assert r.blocks["ord_bits"].tolist() == r.blocks["tf_bits"].tolist() == [0, 0, 0]
    ids, tfs, dls, df, _pos = decode_segment(r)
    assert (ids.tolist(), tfs.tolist(), dls.tolist()) == ([7] * 3, [1] * 3, [3] * 3)
    assert decode_segment(r, np.array([2]))[0].tolist() == [7]
    e = r.term_entry("b")
    assert e["payload"] == b""
    d, t, l = decode_posting_list(e["payload"], e["block_table"])
    assert (d.tolist(), t.tolist(), l.tolist()) == ([7], [1], [3])


def test_encode_segment_rejects_two_dls_for_one_doc():
    """The doc table keeps one dl per doc: a doc posted under two terms
    with different dls must fail loudly, not keep one of them."""
    docs = np.array([5, 9, 5, 11], np.int64)
    tfs = np.ones(4, np.int64)
    starts, ends = np.array([0, 2]), np.array([2, 4])
    ok = encode_segment(docs, tfs, np.array([7, 3, 7, 4]), starts, ends)
    assert ok[2] == 3  # docs 5, 9, 11
    with pytest.raises(ValueError, match="doc id 5 carries two doc lengths"):
        encode_segment(docs, tfs, np.array([7, 3, 8, 4]), starts, ends)


def _positional_group(seed):
    """A (term, doc_id, tf, dl, pos) triple frame, shuffled out of (term,
    doc_id) order, its terms' tfs up to 1, 16 or 17 in turn (tf widths 0,
    4 and 5 bits); returns it with its per-posting positions."""
    doc_ids, _tfs, dls, starts, ends = _mk_segment(seed)
    rng = np.random.default_rng(seed + 100)
    top = np.array([1, 16, 17])[np.arange(len(starts)) % 3]
    tfs = rng.integers(1, np.repeat(top, ends - starts) + 1).astype(np.int64)
    tfs[starts + rng.integers(0, ends - starts)] = top  # reach each max
    flat = np.concatenate([np.sort(rng.choice(5000, t, replace=False)) for t in tfs])
    terms = np.repeat([f"t{i:02d}" for i in range(len(starts))], ends - starts)
    group = pd.DataFrame({
        "term": terms, "doc_id": doc_ids, "tf": tfs, "dl": dls,
        "pos": position_bytes_array(tfs, flat).to_pylist(),
    })
    perm = rng.permutation(len(group))
    return group.iloc[perm].reset_index(drop=True), flat


def test_decode_segment_roundtrip_with_positions(tmp_path):
    group, flat = _positional_group(3)
    write_segment(str(tmp_path), 0, 0, group)
    r = SegmentReader(str(tmp_path), 0, 0)
    doc_ids, tfs, dls, df, pos = decode_segment(r)
    # the writer sorted by (term, doc_id); the generator already was
    srt = group.sort_values(["term", "doc_id"])
    assert doc_ids.dtype == tfs.dtype == dls.dtype == np.int64
    assert doc_ids.tolist() == srt["doc_id"].tolist()
    assert tfs.tolist() == srt["tf"].tolist()
    assert dls.tolist() == srt["dl"].tolist()
    assert df.tolist() == srt.groupby("term").size().tolist()
    assert pos.tolist() == flat.tolist()
    # and term by term, it agrees with the query-time decoders
    o = 0
    for i, term in enumerate(r.terms["term"].to_pylist()):
        e = r.term_entry(term)
        d, t, l = decode_posting_list(e["payload"], e["block_table"])
        assert d.tolist() == doc_ids[o : o + df[i]].tolist()
        p = decode_positions(e["pos_payload"], e["block_table"]["pos_bytes"], t)
        p0 = int(tfs[:o].sum())
        assert p.tolist() == pos[p0 : p0 + len(p)].tolist()
        o += df[i]


@pytest.mark.parametrize("seed", range(4))
def test_decode_posting_list_random_block_masks(tmp_path, seed):
    """A masked decode == the full decode restricted to the selected
    blocks, for every term of a multi-term segment (ordinals of one term
    are sparse in the segment's doc map, so block rebasing matters) and
    tf widths 0, 4 and 5 (a selected odd last block ends inside a byte)."""
    group, _flat = _positional_group(seed)
    write_segment(str(tmp_path), 0, 0, group)
    r = SegmentReader(str(tmp_path), 0, 0)
    assert set(r.blocks["tf_bits"].tolist()) >= {0, 4, 5}
    rng = np.random.default_rng(seed + 50)
    for term in r.terms["term"].to_pylist():
        e = r.term_entry(term)
        bt = e["block_table"]
        full = decode_posting_list(e["payload"], bt)
        bounds = np.concatenate([[0], np.cumsum(bt["n"])])
        for _ in range(6):
            mask = rng.random(len(bt["n"])) < 0.5
            keep = np.zeros(bounds[-1], bool)
            for bi in np.flatnonzero(mask):
                keep[bounds[bi] : bounds[bi + 1]] = True
            got = decode_posting_list(e["payload"], bt, mask)
            for g, f in zip(got, full):
                assert g.dtype == np.int64
                assert g.tolist() == f[keep].tolist()
            p_full = decode_positions(e["pos_payload"], bt["pos_bytes"], full[1])
            p_keep = np.repeat(keep, full[1])
            p = decode_positions(e["pos_payload"], bt["pos_bytes"], got[1], mask)
            assert p.tolist() == p_full[p_keep].tolist()


@pytest.mark.parametrize("seed", range(4))
def test_decode_segment_rows_in_any_order(tmp_path, seed):
    """A rows decode == the whole decode's slices of those terms, for all
    rows in term order and for rows in any other order."""
    group, _flat = _positional_group(seed)
    write_segment(str(tmp_path), 0, 0, group.drop(columns=["pos"]))
    r = SegmentReader(str(tmp_path), 0, 0)
    full = decode_segment(r)
    off = np.concatenate([[0], np.cumsum(full[3])])
    rng = np.random.default_rng(seed)
    picks = [np.arange(len(off) - 1)]
    picks += [rng.permutation(len(off) - 1)[:rng.integers(1, len(off))]
              for _ in range(8)]
    for rows in picks:
        ids, tfs, dls, df, pos = decode_segment(r, rows)
        sl = np.concatenate([np.arange(off[i], off[i + 1]) for i in rows])
        assert pos is None and df.tolist() == full[3][rows].tolist()
        for got, want in zip((ids, tfs, dls), full):
            assert got.dtype == np.int64
            assert got.tolist() == want[sl].tolist()


def test_decode_posting_list_reads_unpadded_term_payloads(tmp_path):
    """``term_entry``'s payload is the term's bytes alone, without the
    file's zero tail, as ``perfbench``'s ``layer_postings`` and the
    phrase path pass it: ``decode_posting_list`` reads it whole and by
    block mask, also for the last term, whose payload ends where the tail
    begins."""
    group, _flat = _positional_group(6)
    write_segment(str(tmp_path), 0, 0, group.drop(columns=["pos"]))
    r = SegmentReader(str(tmp_path), 0, 0)
    ids, tfs, dls, df, _pos = decode_segment(r)
    off = np.concatenate([[0], np.cumsum(df)])
    for i, term in enumerate(r.terms["term"].to_pylist()):
        e = r.term_entry(term)
        assert isinstance(e["payload"], bytes)
        assert len(e["payload"]) == r.term_cols["payload_len"][i]
        sl = slice(off[i], off[i + 1])
        got = decode_posting_list(e["payload"], e["block_table"])
        assert [g.tolist() for g in got] == [ids[sl].tolist(), tfs[sl].tolist(),
                                             dls[sl].tolist()]
        n = e["block_table"]["n"]
        mask = np.arange(len(n)) % 2 == 1
        keep = np.repeat(mask, n)
        got = decode_posting_list(e["payload"], e["block_table"], mask)
        assert [g.tolist() for g in got] == [ids[sl][keep].tolist(),
                                             tfs[sl][keep].tolist(),
                                             dls[sl][keep].tolist()]
    assert e["payload_off"] + e["payload_len"] + TAIL == len(r.payload)


def test_decode_segment_empty_and_plain(tmp_path):
    empty = pd.DataFrame({"term": pd.Series(dtype=object),
                          "doc_id": pd.Series(dtype=np.int64),
                          "tf": pd.Series(dtype=np.int64),
                          "dl": pd.Series(dtype=np.int64)})
    write_segment(str(tmp_path), 0, 0, empty)
    doc_ids, tfs, dls, df, pos = decode_segment(SegmentReader(str(tmp_path), 0, 0))
    assert len(doc_ids) == len(tfs) == len(dls) == len(df) == 0 and pos is None
    group, _flat = _positional_group(4)
    write_segment(str(tmp_path), 0, 1, group.drop(columns=["pos"]))
    doc_ids, _tfs, _dls, df, pos = decode_segment(SegmentReader(str(tmp_path), 0, 1))
    assert pos is None and len(doc_ids) == int(df.sum()) == len(group)


@pytest.mark.parametrize("n_tombs", [40, None])
def test_expunged_triples_rewrite_equals_filtered_write(tmp_path, n_tombs):
    """Masked whole-segment decode + rewrite == writing the surviving
    triples directly (byte-identical segment files); ``None`` masks every
    doc, so the rewrite is an empty segment."""
    from archivesspace_virgo_ray.index.reshard import segments_equal
    from archivesspace_virgo_ray.index.update import _read_expunged_triples

    group, _flat = _positional_group(5)
    src, a, b = (str(tmp_path / x) for x in ("src", "a", "b"))
    write_segment(src, 0, 0, group)
    ids = group["doc_id"].unique()
    rng = np.random.default_rng(9)
    tomb_ids = np.sort(ids if n_tombs is None else rng.choice(ids, n_tombs, replace=False))
    tomb_thr = np.ones(len(tomb_ids), np.int64)  # above the base's mask gen 0
    readers = {"s0000_b0000": SegmentReader(src, 0, 0)}
    triples = _read_expunged_triples(readers, tomb_ids, tomb_thr, True)
    survivors = group[~group["doc_id"].isin(tomb_ids)]
    assert len(triples) == len(survivors) < len(group)
    _write_table(a, 0, 0, triples)
    write_segment(b, 0, 0, survivors)
    assert segments_equal(a, b)


# ---- golden segment bytes --------------------------------------------------

_GOLDEN_WORDS = 97


def _golden_docs() -> pa.Table:
    """700 docs: a head term in every doc (multi-block lists), a tf of 201
    (two varbyte bytes), a 17k-token doc (three-byte dl), 63-bit doc ids."""
    ids, texts = [], []
    for i in range(700):
        ids.append((i + 1) * 0x9E3779B97F4A7C15 % (2**63 - 1))
        words = ["common"] + [f"w{(i * 7 + j * (i % 13 + 1)) % _GOLDEN_WORDS}"
                              for j in range(3 + (i * 11) % 60)]
        if i == 0:
            words += ["common"] * 200
        if i == 1:
            words += [f"w{j % 50}" for j in range(17000)]
        texts.append(" ".join(words))
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})


# sha256 of each segment file. The postings.bin digests are format v4's
# (ordinal gaps and tf - 1 bit-packed per block); docs.bin kept its
# digests from posting format v2, which introduced segment-local ordinals,
# and positions.bin from before the whole-segment codec. The file format
# must not drift; postings.bin and docs.bin are the same with and without
# positions.
_GOLDEN_POSTINGS = {
    "s0000_b0000": "1741f1f0905e58641a37a7c341e67435ddf4bebb7d192639037a60ec78027103",
    "s0000_b0001": "1050ca90f68c545a664c5dd21b7b472ed7b9f2109217c2ee8fd7215f67e26865",
    "s0001_b0000": "a4aeecc51c672318b21565e96543cdf104816a12d9c4720636cc8b655e963356",
    "s0001_b0001": "cf135d01518bfda88d5d464d1c17d5a306ebedd136630201d5e0f4bbe6656c93",
}
# shard 0's two buckets hold the same docs, so their doc tables match
_GOLDEN_DOCS = {
    "s0000_b0000": "38e9e432375ebcb72658c7d3f16ccd01a31b9244fb24545f0cdd84d5fc38af99",
    "s0000_b0001": "38e9e432375ebcb72658c7d3f16ccd01a31b9244fb24545f0cdd84d5fc38af99",
    "s0001_b0000": "61942f4c9a2f6c544418ed39d3fa28e9472576a0d8bc720bbfdc11c9b7dc63c0",
    "s0001_b0001": "26a3f1186c7d7a13db31394ed713915c5f9f6877fcf8cbbfe87ad8547a86880a",
}
_GOLDEN_POSITIONS = {
    "s0000_b0000": "0540ce66981efc79eb36233c570993ac72a09aae2447a4b860f635d2effadc3b",
    "s0000_b0001": "e1a7034a27325fe03bbc06382e8877b445e48e73590f99207e5018f221170581",
    "s0001_b0000": "fe443a32c9a8980974831589e53bed3bd7796308ca55c5dfcf161bed6fdf6a94",
    "s0001_b0001": "faafcdb79554c800209c5dc9522a8fdf89c052517ab4bb94482cf40235db650a",
}


def _digests(idx: str, fname: str) -> dict:
    seg = os.path.join(idx, "segments")
    return {
        name: hashlib.sha256(open(os.path.join(seg, name, fname), "rb").read()).hexdigest()
        for name in sorted(os.listdir(seg))
    }


@pytest.mark.parametrize("positions", [False, True])
def test_golden_segment_bytes(ray_session, tmp_path, positions):
    from archivesspace_virgo_ray.index.build import BuildConfig, build_index

    src = str(tmp_path / "docs.parquet")
    pq.write_table(_golden_docs(), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, BuildConfig(
        n_shards=2, n_buckets=2, text_col="text", id_col="doc_id",
        meta_cols=(), store_positions=positions))
    assert _digests(idx, "postings.bin") == _GOLDEN_POSTINGS
    assert _digests(idx, "docs.bin") == _GOLDEN_DOCS
    if positions:
        assert _digests(idx, "positions.bin") == _GOLDEN_POSITIONS
