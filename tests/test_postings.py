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
    """Plain-Python encoder: loops over terms, blocks and base-128 bytes."""
    doc_ids, tfs, dls = (list(map(int, a)) for a in (doc_ids, tfs, dls))
    payload = bytearray()
    terms = {"n_blocks": [], "block_start": [], "payload_off": [], "payload_len": []}
    blocks = {k: [] for k in BLOCK_COLUMNS}
    for s, e in zip(map(int, starts), map(int, ends)):
        terms["block_start"].append(len(blocks["n"]))
        terms["payload_off"].append(len(payload))
        for bs in range(s, e, BLOCK_SIZE):
            be = min(bs + BLOCK_SIZE, e)
            doc = b"".join(
                _ref_varbyte(doc_ids[i] - doc_ids[i - 1] if i > s else doc_ids[i])
                for i in range(bs, be))
            tf = b"".join(_ref_varbyte(tfs[i]) for i in range(bs, be))
            dl = b"".join(_ref_varbyte(dls[i]) for i in range(bs, be))
            payload += doc + tf + dl
            blocks["last_doc"].append(doc_ids[be - 1])
            blocks["n"].append(be - bs)
            blocks["max_tf"].append(max(tfs[bs:be]))
            blocks["min_dl"].append(min(dls[bs:be]))
            blocks["doc_bytes"].append(len(doc))
            blocks["tf_bytes"].append(len(tf))
            blocks["dl_bytes"].append(len(dl))
        terms["n_blocks"].append(len(blocks["n"]) - terms["block_start"][-1])
        terms["payload_len"].append(len(payload) - terms["payload_off"][-1])
    return bytes(payload), terms, blocks


_SEGMENT_DFS = [1, 127, 128, 129, 3 * BLOCK_SIZE + 17]


def _mk_segment(seed, dfs=_SEGMENT_DFS):
    """Flat (term, doc_id)-ordered postings of one term per df: doc ids up
    to 2**63 - 1, tfs and dls needing 1-3 varbyte bytes."""
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
    return doc_ids, vals(), vals(), ends - dfs, ends


_TERM_DTYPES = {"n_blocks": np.int32, "block_start": np.int64,
                "payload_off": np.int64, "payload_len": np.int64}
_BLOCK_DTYPES = {k: np.int32 if k == "n" else np.int64 for k in BLOCK_COLUMNS}


@pytest.mark.parametrize("seed", range(5))
def test_encode_segment_matches_reference(seed):
    doc_ids, tfs, dls, starts, ends = _mk_segment(seed)
    payload, terms, blocks = encode_segment(doc_ids, tfs, dls, starts, ends)
    ref_payload, ref_terms, ref_blocks = _ref_encode_segment(
        doc_ids, tfs, dls, starts, ends)
    assert payload == ref_payload
    assert set(terms) == set(_TERM_DTYPES) and set(blocks) == set(BLOCK_COLUMNS)
    for k, dt in _TERM_DTYPES.items():
        assert terms[k].dtype == dt, k
        assert terms[k].tolist() == ref_terms[k], k
    for k, dt in _BLOCK_DTYPES.items():
        assert blocks[k].dtype == dt, k
        assert blocks[k].tolist() == ref_blocks[k], k


def test_encode_segment_empty():
    e = np.empty(0, np.int64)
    payload, terms, blocks = encode_segment(e, e, e, e, e)
    assert payload == b""
    assert {k: v.dtype for k, v in terms.items()} == _TERM_DTYPES
    assert all(v.dtype == np.int64 and len(v) == 0 for v in blocks.values())
    assert all(len(v) == 0 for v in terms.values())


def test_encode_posting_list_is_a_one_term_segment():
    doc_ids, tfs, dls, starts, ends = _mk_segment(7, dfs=[3 * BLOCK_SIZE + 17])
    payload, table = encode_posting_list(doc_ids, tfs, dls)
    ref_payload, _terms, ref_blocks = _ref_encode_segment(
        doc_ids, tfs, dls, starts, ends)
    assert payload == ref_payload
    assert {k: v.tolist() for k, v in table.items()} == ref_blocks


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
    triples = _read_expunged_triples(src, readers, tomb_ids, tomb_thr, True)
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


# sha256 of each segment file, recorded from the segment writer before the
# whole-segment codec replaced its per-term loop; the file format must not
# drift. postings.bin is the same with and without positions.
_GOLDEN_POSTINGS = {
    "s0000_b0000": "811a2257301edc31c44747e284b2f6becc7285026ae4bb078a87c9324a35e082",
    "s0000_b0001": "d950c8f7c498a85c7863817883823b3223df89d6b358f9940d8db70b1e01b662",
    "s0001_b0000": "80a96c51e64537cb1b2a87a3857ee2a6dbb465b1294a0d2df42755d977825e79",
    "s0001_b0001": "b11f7daee1978a7e69cc9a37ea0f406d4594097f5143b70f4728346e0f60f682",
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
    if positions:
        assert _digests(idx, "positions.bin") == _GOLDEN_POSITIONS
