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
    decode_positions,
    decode_posting_list,
    decode_segment,
    encode_posting_list,
    encode_segment,
    position_bytes_array,
    varbyte_decode,
    varbyte_encode,
)
from archivesspace_virgo_ray.index.segments import SegmentReader, write_segment


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
    # block metadata correct
    assert table["last_doc"][-1] == docs[-1]
    assert table["n"].sum() == n
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


def _ref_encode_segment(doc_ids, tfs, dls, starts, ends):
    """Plain-Python v2 encoder: ordinals by ascending doc id, each term's
    first ordinal absolute, a term's payload = its blocks' ordinal bytes
    then their tf bytes; loops over docs, terms, blocks and base-128 bytes.
    Returns (payload, doc_table, n_docs, terms, blocks)."""
    doc_ids, tfs, dls = (list(map(int, a)) for a in (doc_ids, tfs, dls))
    dl_of = dict(zip(doc_ids, dls))
    docs = sorted(dl_of)
    ordinal = {d: o for o, d in enumerate(docs)}
    doc_table = b"".join(
        _ref_varbyte(d - (docs[o - 1] if o else 0)) for o, d in enumerate(docs)
    ) + b"".join(_ref_varbyte(dl_of[d]) for d in docs)
    payload = bytearray()
    terms = {"n_blocks": [], "block_start": [], "payload_off": [], "payload_len": []}
    blocks = {k: [] for k in BLOCK_COLUMNS}
    for s, e in zip(map(int, starts), map(int, ends)):
        terms["block_start"].append(len(blocks["n"]))
        terms["payload_off"].append(len(payload))
        term_ords, term_tfs = bytearray(), bytearray()
        for bs in range(s, e, BLOCK_SIZE):
            be = min(bs + BLOCK_SIZE, e)
            ords = b"".join(
                _ref_varbyte(ordinal[doc_ids[i]] - ordinal[doc_ids[i - 1]]
                             if i > s else ordinal[doc_ids[i]])
                for i in range(bs, be))
            tf = b"".join(_ref_varbyte(tfs[i]) for i in range(bs, be))
            term_ords += ords
            term_tfs += tf
            blocks["last_doc"].append(doc_ids[be - 1])
            blocks["n"].append(be - bs)
            blocks["max_tf"].append(max(tfs[bs:be]))
            blocks["min_dl"].append(min(dls[bs:be]))
            blocks["ord_bytes"].append(len(ords))
            blocks["tf_bytes"].append(len(tf))
        payload += term_ords + term_tfs
        terms["n_blocks"].append(len(blocks["n"]) - terms["block_start"][-1])
        terms["payload_len"].append(len(payload) - terms["payload_off"][-1])
    return bytes(payload), doc_table, len(docs), terms, blocks


_SEGMENT_DFS = [1, 127, 128, 129, 3 * BLOCK_SIZE + 17]


def _mk_segment(seed, dfs=_SEGMENT_DFS):
    """Flat (term, doc_id)-ordered postings of one term per df: doc ids up
    to 2**63 - 1 (0 and 2**63 - 1 shared by several terms), tfs and dls
    needing 1-3 varbyte bytes, one dl per doc."""
    rng = np.random.default_rng(seed)
    dfs = rng.permutation(dfs)
    docs = []
    for df in dfs:
        ids = np.unique(rng.integers(0, 2**63 - 1, 2 * df, dtype=np.int64))
        ids = np.sort(rng.choice(ids, df, replace=False))
        if df > 2:
            ids[0], ids[-1] = 0, 2**63 - 1
        docs.append(np.sort(ids))
    doc_ids = np.concatenate(docs)
    n = len(doc_ids)

    def vals():
        width = rng.integers(0, 3, n)
        return np.choose(width, [rng.integers(1, 2**7, n),
                                 rng.integers(2**7, 2**14, n),
                                 rng.integers(2**14, 2**21, n)]).astype(np.int64)

    ends = np.cumsum(dfs)
    tfs = vals()
    _uniq, first, inv = np.unique(doc_ids, return_index=True, return_inverse=True)
    dls = vals()[first][inv]
    return doc_ids, tfs, dls, ends - dfs, ends


_TERM_DTYPES = {"n_blocks": np.int32, "block_start": np.int64,
                "payload_off": np.int64, "payload_len": np.int64}
_BLOCK_DTYPES = {k: np.int32 if k == "n" else np.int64 for k in BLOCK_COLUMNS}


@pytest.mark.parametrize("seed", range(5))
def test_encode_segment_matches_reference(seed):
    doc_ids, tfs, dls, starts, ends = _mk_segment(seed)
    payload, doc_table, n_docs, terms, blocks = encode_segment(
        doc_ids, tfs, dls, starts, ends)
    ref_payload, ref_docs, ref_n, ref_terms, ref_blocks = _ref_encode_segment(
        doc_ids, tfs, dls, starts, ends)
    assert payload == ref_payload
    assert doc_table == ref_docs and n_docs == ref_n
    assert set(terms) == set(_TERM_DTYPES) and set(blocks) == set(BLOCK_COLUMNS)
    for k, dt in _TERM_DTYPES.items():
        assert terms[k].dtype == dt, k
        assert terms[k].tolist() == ref_terms[k], k
    for k, dt in _BLOCK_DTYPES.items():
        assert blocks[k].dtype == dt, k
        assert blocks[k].tolist() == ref_blocks[k], k


def test_encode_segment_empty():
    e = np.empty(0, np.int64)
    payload, doc_table, n_docs, terms, blocks = encode_segment(e, e, e, e, e)
    assert payload == doc_table == b"" and n_docs == 0
    assert {k: v.dtype for k, v in terms.items()} == _TERM_DTYPES
    assert all(v.dtype == np.int64 and len(v) == 0 for v in blocks.values())
    assert all(len(v) == 0 for v in terms.values())


def test_encode_posting_list_is_a_one_term_segment():
    doc_ids, tfs, dls, starts, ends = _mk_segment(7, dfs=[3 * BLOCK_SIZE + 17])
    payload, table = encode_posting_list(doc_ids, tfs, dls)
    ref_payload, _docs, _n, _terms, ref_blocks = _ref_encode_segment(
        doc_ids, tfs, dls, starts, ends)
    assert payload == ref_payload
    assert {k: table[k].tolist() for k in BLOCK_COLUMNS} == ref_blocks
    assert table["doc_map"].tolist() == doc_ids.tolist()
    assert table["dl_map"].tolist() == dls.tolist()


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
    """A (term, doc_id, tf, dl, pos) triple frame with small tfs, shuffled
    out of (term, doc_id) order; returns it with its per-posting positions."""
    doc_ids, _tfs, dls, starts, ends = _mk_segment(seed)
    rng = np.random.default_rng(seed + 100)
    tfs = rng.integers(1, 9, len(doc_ids)).astype(np.int64)
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
    are sparse in the segment's doc map, so block rebasing matters)."""
    group, _flat = _positional_group(seed)
    write_segment(str(tmp_path), 0, 0, group)
    r = SegmentReader(str(tmp_path), 0, 0)
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
    write_segment(a, 0, 0, triples)
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


# sha256 of each segment file. The posting-format-v2 digests of
# postings.bin and docs.bin were recorded when segment-local ordinals
# replaced per-posting doc ids and dls; positions.bin kept its digests
# from before the whole-segment codec. The file format must not drift;
# postings.bin and docs.bin are the same with and without positions.
_GOLDEN_POSTINGS = {
    "s0000_b0000": "de047ade8f1085ca5270f313e683148e5dcae8e000fb0ede579304a49457bbc3",
    "s0000_b0001": "2c73150b003ea162fb08399d60f812eed8527974fef1a2ed850d918e6226c07f",
    "s0001_b0000": "def26577cf478ebeba767e1a71d9503ee409b15dea3a7305b9a07c6f3f972004",
    "s0001_b0001": "10255d4e0b8a54727d8c76b59b52ad67a80ee44f68280fe8cdc23f9a9239f244",
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
