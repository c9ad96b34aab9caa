"""Tests: dedup families, similarity search, text analysis, multimodal plumbing."""

import numpy as np
import pandas as pd
import pytest

from archivesspace_virgo_ray.pipelines.dedup import (
    embedding_near_dups,
    exact_dedup,
    jaccard,
    minhash_dedup,
    minhash_signature,
    _perm_params,
    simhash64,
    simhash_near_dups,
    word_shingles,
)
from archivesspace_virgo_ray.pipelines.similarity import knn_brute_force, knn_ivf
from archivesspace_virgo_ray.pipelines.textstats import (
    fingerprint64,
    lang_id_batch,
    quality_batch,
    token_count_batch,
)


@pytest.fixture(scope="module")
def docs_df():
    base = "the quick brown fox jumps over the lazy dog again and again today"
    rng = np.random.default_rng(9)
    rows = []
    for i in range(30):
        filler = " ".join(f"tok_{rng.integers(0, 5000)}" for _ in range(30))
        rows.append({"doc_id": i, "text": f"{base} variant_{i} {filler}"})
    # exact duplicates of doc 0
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[0]["text"]})
    # near duplicate of doc 1 (one token changed)
    rows.append({"doc_id": 102, "text": rows[1]["text"].replace("lazy", "sleepy")})
    return pd.DataFrame(rows)


def test_exact_dedup(ray_session, docs_df):
    import ray.data

    out = exact_dedup(ray.data.from_pandas(docs_df)).to_pandas()
    dup = out[out["n_dupes"] > 1]
    assert len(dup) == 1
    assert dup["keep_doc_id"].iloc[0] == 0
    assert dup["n_dupes"].iloc[0] == 3


def test_exact_dedup_keyed_shuffle_path(ray_session, docs_df):
    """Force the scale path (expected_rows hint > keyed_fallback_rows): the
    distinct-hash reduction must go through the keyed bucket shuffle and
    return exactly the same table as the single-worker tree merge."""
    import ray.data

    base = exact_dedup(ray.data.from_pandas(docs_df)).to_pandas()
    forced = exact_dedup(
        ray.data.from_pandas(docs_df),
        n_rows=len(docs_df),
        keyed_fallback_rows=4,  # << n distinct hashes → fallback engages
    ).to_pandas()
    cols = ["content_md5", "keep_doc_id", "n_dupes"]
    a = base[cols].sort_values("content_md5", ignore_index=True)
    b = forced[cols].sort_values("content_md5", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_corpus_clean_keyed_shuffle_path(ray_session, docs_df):
    """corpus_clean with the n_rows hint (scale path in exact_dedup) keeps
    the same survivor set as the default path."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.curation import corpus_clean
    from archivesspace_virgo_ray.state import aggregates

    base = corpus_clean(ray.data.from_pandas(docs_df), min_tokens=2)
    base = (base.to_pandas() if hasattr(base, "to_pandas") else base)
    old = aggregates.KEYED_FALLBACK_ROWS
    try:
        aggregates.KEYED_FALLBACK_ROWS = 4
        forced = corpus_clean(
            ray.data.from_pandas(docs_df), min_tokens=2, n_rows=len(docs_df)
        )
    finally:
        aggregates.KEYED_FALLBACK_ROWS = old
    forced = forced.to_pandas() if hasattr(forced, "to_pandas") else forced
    assert sorted(base["doc_id"]) == sorted(forced["doc_id"])


def test_minhash_estimates_jaccard():
    a, b = _perm_params(256)
    t1 = "a b c d e f g h i j k l m n o p"
    t2 = "a b c d e f g h i j k l m n o q"
    s1 = minhash_signature(t1, a, b)
    s2 = minhash_signature(t2, a, b)
    est = (s1 == s2).mean()
    true = jaccard(word_shingles(t1), word_shingles(t2))
    assert abs(est - true) < 0.15


def test_minhash_batch_kernel_bit_identical():
    """The batched signature kernel (unique-shingle cache + slab reduceat)
    must be bit-identical to the per-doc reference, including the
    empty-doc zero-hash row, slab boundaries, and warm-cache reuse."""
    import numpy as np

    import archivesspace_virgo_ray.pipelines.dedup as dd
    from archivesspace_virgo_ray.pipelines.dedup import minhash_signatures_batch

    a, b = _perm_params(128)
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(40)]
    texts = [
        " ".join(rng.choice(words, size=int(n)))
        for n in rng.integers(0, 60, size=80)
    ] + ["", "one", "two words here"]
    texts += texts[:5]  # exact dups exercise the cache
    ref = np.stack([minhash_signature(t, a, b, 3) for t in texts])
    cache: dict = {}
    assert (minhash_signatures_batch(texts, a, b, 3, cache) == ref).all()
    assert (minhash_signatures_batch(texts, a, b, 3, cache) == ref).all()  # warm
    assert (minhash_signatures_batch(texts, a, b, 3, None) == ref).all()
    assert minhash_signatures_batch([], a, b, 3, {}).shape == (0, 128)
    old = dd._SIG_SLAB_SHINGLES
    dd._SIG_SLAB_SHINGLES = 7  # force many slabs, docs astride boundaries
    try:
        assert (minhash_signatures_batch(texts, a, b, 3, {}) == ref).all()
    finally:
        dd._SIG_SLAB_SHINGLES = old


def test_minhash_fast_hash_kind_matches_verified_pairs(ray_session, sf_dir):
    """hash_kind='fast' (cached token md5 + FNV rolling combine) changes the
    LSH hash values but NOT the exact-Jaccard verdict — on bench-scale data
    both modes must verify the same pair set with identical sims (LSH recall
    differences would only appear as missing borderline candidates; exact
    dups always collide in both since identical texts share signatures)."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.dedup import minhash_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    def norm(p):
        p = p.to_pandas() if hasattr(p, "to_pandas") else p
        return p.sort_values(["doc_a", "doc_b"], ignore_index=True)

    md5p = norm(minhash_pairs(ds, threshold=0.8, n_perm=128, bands=32))
    fast = norm(minhash_pairs(ds, threshold=0.8, n_perm=128, bands=32,
                              hash_kind="fast"))
    assert len(md5p) > 0
    pd.testing.assert_frame_equal(md5p.round({"sim": 9}), fast.round({"sim": 9}))


def test_minhash_hash_kind_auto_gate(ray_session, sf_dir):
    """'auto' resolves from input size WITHOUT executing the plan: md5 (the
    oracle contract) below _FAST_HASH_INPUT_BYTES and on un-probeable lazy
    plans, 'fast' on large inputs — and a forced-low threshold must flip a
    real run to the fast path with the identical verified pair set."""
    import ray.data

    import archivesspace_virgo_ray.pipelines.dedup as dd

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    # bare read, far below the 256 MiB gate -> md5
    assert dd._resolve_hash_kind("auto", ds) == "md5"
    # explicit kinds pass through untouched
    assert dd._resolve_hash_kind("md5", ds) == "md5"
    assert dd._resolve_hash_kind("fast", ds) == "fast"
    # a transformed lazy plan must NOT be probed (size_bytes would execute
    # it) -> conservative md5
    mapped = ds.map_batches(lambda t: t, batch_format="pyarrow")
    assert dd._resolve_hash_kind("auto", mapped) == "md5"
    # materialized datasets probe cheaply; force the gate low -> fast
    mat = ds.materialize()
    old = dd._FAST_HASH_INPUT_BYTES
    dd._FAST_HASH_INPUT_BYTES = 1
    try:
        assert dd._resolve_hash_kind("auto", mat) == "fast"
        assert dd._resolve_hash_kind("auto", ds) == "fast"
        forced = dd.minhash_pairs(mat, threshold=0.8, n_perm=128, bands=32)
    finally:
        dd._FAST_HASH_INPUT_BYTES = old
    md5p = dd.minhash_pairs(ds, threshold=0.8, n_perm=128, bands=32)

    def norm(p):
        p = p.to_pandas() if hasattr(p, "to_pandas") else p
        return p.sort_values(["doc_a", "doc_b"], ignore_index=True)

    pd.testing.assert_frame_equal(
        norm(md5p).round({"sim": 9}), norm(forced).round({"sim": 9})
    )


def test_minhash_dedup_finds_near_dups(ray_session, docs_df):
    import ray.data

    out = minhash_dedup(
        ray.data.from_pandas(docs_df), threshold=0.6, n_perm=128, bands=32
    )
    clusters = dict(zip(out["doc_id"], out["rep_id"]))
    # exact dups cluster with doc 0
    assert clusters.get(100) == 0 and clusters.get(101) == 0
    # near-dup 102 clusters with doc 1
    assert clusters.get(102) == 1
    # unrelated docs don't cluster
    assert 5 not in clusters and 17 not in clusters


def test_simhash(ray_session, docs_df):
    import ray.data

    h1 = simhash64(docs_df["text"][0])
    h2 = simhash64(docs_df["text"][0])
    assert h1 == h2
    out = simhash_near_dups(ray.data.from_pandas(docs_df), max_hamming=3)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 100) in pairs and (0, 101) in pairs


def test_embedding_near_dups(ray_session):
    import ray.data

    rng = np.random.default_rng(0)
    base = rng.standard_normal((20, 16))
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(20)]
    rows.append({"vec_id": 50, "embedding": (base[3] + 1e-3 * rng.standard_normal(16)).tolist()})
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = embedding_near_dups(ds, threshold=0.99).to_pandas()
    assert (3, 50) in set(zip(out["vec_a"], out["vec_b"]))


def test_knn_brute_force_matches_numpy(ray_session, sf_dir):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    pdf = ds.to_pandas()
    mat = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
    ids = pdf["vec_id"].to_numpy()
    q = mat[:2]
    got = knn_brute_force(ds, q, k=5)
    # numpy oracle
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = matn @ qn.T
    for qi in range(2):
        order = np.lexsort((ids, -sims[:, qi]))[:5]
        expect = ids[order].tolist()
        sub = got[got["query_idx"] == qi].sort_values("rank")
        assert sub["vec_id"].tolist() == expect


def test_knn_ivf_recall(ray_session, sf_dir):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    pdf = ds.to_pandas()
    mat = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
    q = mat[:3]
    exact = knn_brute_force(ds, q, k=10)
    approx = knn_ivf(ds, q, k=10)  # persisted multi-assign layout, defaults
    # the default layout (8 cells × 3 replicas, 3 probes) must deliver a
    # USABLE ANN — measured 1.0 at sf0.001/sf0.01
    recalls = []
    for qi in range(3):
        e = set(exact[exact["query_idx"] == qi]["vec_id"])
        a = set(approx[approx["query_idx"] == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.9


def test_lang_id():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "the cat and the dog is in the house",
                "le chat est dans la maison et le jardin",
                "@@@ ###",
            ],
        }
    )
    out = lang_id_batch(df)
    assert out["pred_lang"].tolist() == ["en", "fr", "und"]


def test_quality_and_token_counts():
    df = pd.DataFrame({"doc_id": [1], "text": ["The quick fox! It runs."]})
    q = quality_batch(df)
    assert q["n_tokens"][0] == 5  # the quick fox it runs
    assert q["n_stopwords"][0] == 1  # "the"
    assert q["n_punct"][0] == 2  # ! .
    t = token_count_batch(df)
    assert t["ws_tokens"][0] == 5
    assert t["bpe_ish_tokens"][0] == 7  # The quick fox ! It runs .


def test_fingerprint_deterministic():
    a = fingerprint64("hello world foo")
    b = fingerprint64("hello world foo")
    c = fingerprint64("hello world bar")
    assert a == b and a != c


def test_multimodal_plumbing(ray_session):
    import ray.data

    from archivesspace_virgo_ray.pipelines.multimodal import (
        ImageFeatureStage,
        RealDecodeUnavailable,
        extract_image_features,
        frame_sample_plan,
        synthesize_media_table,
    )

    tbl = synthesize_media_table(20)
    ds = ray.data.from_arrow(tbl)
    out = extract_image_features(ds, concurrency=2, batch_size=8).to_pandas()
    assert len(out) == 20
    assert all(len(f) == ImageFeatureStage.FEATURE_DIM for f in out["feature"])
    # deterministic across runs
    out2 = extract_image_features(ray.data.from_arrow(tbl), concurrency=1).to_pandas()
    m1 = dict(zip(out["item_id"], out["payload_sha256"]))
    m2 = dict(zip(out2["item_id"], out2["payload_sha256"]))
    assert m1 == m2
    # PNG/JPEG decode for real; remaining codecs stay the marked stub
    stage = ImageFeatureStage()
    with pytest.raises(RealDecodeUnavailable):
        stage._decode(b"x", "video/mp4")
    from archivesspace_virgo_ray.functions.png import encode_png

    px = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    feats = stage._decode(encode_png(px), "image/png")
    assert feats.shape == (32,)
    assert abs(feats[3] - px[:, :, 0].mean() / 255.0) < 1e-12
    assert frame_sample_plan(np.array([10.0]), fps=0.5, max_frames=8)[0] == [
        0.0, 2.0, 4.0, 6.0, 8.0,
    ]


def test_image_resize_stage(ray_session):
    import ray.data

    from archivesspace_virgo_ray.functions.png import decode_png, encode_png
    from archivesspace_virgo_ray.pipelines.multimodal import (
        resize_images,
        resize_pixels,
        synthesize_media_table,
    )

    # kernel: uniform image stays uniform; exact 2x2 box average
    uni = np.full((8, 6, 3), 77, dtype=np.uint8)
    assert (resize_pixels(uni, 4, 3) == 77).all()
    px = np.array([[[0], [10]], [[20], [30]]], dtype=np.uint8)
    assert resize_pixels(px, 1, 1)[0, 0, 0] == 15
    # target larger than source clamps to source dims
    assert resize_pixels(uni, 99, 99).shape == (8, 6, 3)

    # actor-pool stage over a Dataset: thumbnails round-trip at target dims
    tbl = synthesize_media_table(12)
    out = resize_images(
        ray.data.from_arrow(tbl), target=(4, 4), concurrency=2, batch_size=4
    ).to_pandas()
    assert len(out) == 12
    assert set(out["media_type"]) == {"image/png"}
    for payload, w, h in zip(out["payload"], out["width"], out["height"]):
        arr = decode_png(bytes(payload))
        assert arr.shape[0] == h and arr.shape[1] == w
        assert h <= 4 and w <= 4

    # determinism: same input -> byte-identical thumbnails
    out2 = resize_images(
        ray.data.from_arrow(tbl), target=(4, 4), concurrency=1
    ).to_pandas()
    m1 = dict(zip(out["item_id"], (bytes(p) for p in out["payload"])))
    m2 = dict(zip(out2["item_id"], (bytes(p) for p in out2["payload"])))
    assert m1 == m2


def test_exact_quantiles_property(ray_session):
    """Two-pass exact quantiles match numpy's linear interpolation on
    adversarial distributions: duplicates, mass points, skew, tiny n."""
    import numpy as np
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.pipelines.quantiles import exact_quantiles

    rng = np.random.default_rng(12)
    cases = [
        rng.standard_normal(5000) * 100,
        np.repeat([1.0, 2.0, 2.0, 9.0], [10, 4000, 500, 3]),  # mass point
        rng.pareto(1.5, 3000),                                 # heavy tail
        np.array([42.0]),                                      # n = 1
        np.array([1.0, 2.0]),
    ]
    qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0]
    for vals in cases:
        rng.shuffle(vals)
        ds = ray.data.from_pandas(pd.DataFrame({"value": vals})).repartition(4)
        got = exact_quantiles(ds, "value", qs, n_bins=64)
        want = [float(np.quantile(vals, q)) for q in qs]
        assert np.allclose(got["value"].to_numpy(), want, rtol=0, atol=1e-12), vals[:5]


def test_exact_quantiles_nonfinite(ray_session):
    """NaN poisons every quantile (numpy/DuckDB parity); ±inf occupy the
    ends of the virtual order WITHOUT entering the histogram — a single inf
    must not degrade the pruned collect."""
    import numpy as np
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.pipelines.quantiles import exact_quantiles

    rng = np.random.default_rng(3)
    qs = [0.0, 0.25, 0.5, 0.9, 1.0]
    nanv = np.concatenate([rng.standard_normal(100), [np.nan]])
    out = exact_quantiles(
        ray.data.from_pandas(pd.DataFrame({"value": nanv})), "value", qs, n_bins=32
    )
    assert out["value"].isna().all()

    infv = np.concatenate([rng.standard_normal(500), [np.inf, np.inf, -np.inf]])
    rng.shuffle(infv)
    out = exact_quantiles(
        ray.data.from_pandas(pd.DataFrame({"value": infv})).repartition(3),
        "value", qs, n_bins=32,
    )
    want = [float(np.quantile(infv, q)) for q in qs]
    got = out["value"].to_numpy()
    assert got[0] == -np.inf and got[-1] == np.inf
    assert np.allclose(got[1:-1], want[1:-1], rtol=0, atol=1e-12)


def test_hll_accuracy_and_merge_invariance(ray_session):
    """HLL estimate lands within ~3σ of truth across cardinalities, and the
    tree-merged distributed sketch equals the single-pass sketch exactly
    (register maxima are merge-invariant)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.pipelines.sketches import (
        hll_distinct,
        hll_estimate,
        hll_register_batch,
    )

    p = 10  # m=1024 → ~3.3% standard error
    for true_n in (100, 5_000, 50_000):
        vals = np.arange(true_n, dtype=np.int64)
        ds = ray.data.from_pandas(pd.DataFrame({"x": vals})).repartition(8)
        est = float(hll_distinct(ds, "x", p=p)["estimate"].iloc[0])
        assert abs(est - true_n) / true_n < 0.1, (true_n, est)
        # single-pass oracle: same registers, same estimate
        regs = hll_register_batch(vals, p)
        registers = np.zeros(1 << p, dtype=np.int64)
        registers[regs["register"].to_numpy()] = regs["rho"].to_numpy()
        assert round(hll_estimate(registers, p), 6) == round(est, 6)


def test_minhash_scale_paths_match_small_paths(ray_session, sf_dir, monkeypatch):
    """Forcing the scale branches (banded keyed-groupby pairing, hash_join
    candidate text slicing, distributed pair handling) on bench-scale data
    must reproduce the small-path results exactly."""
    import ray.data

    from archivesspace_virgo_ray.pipelines import dedup

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    small = dedup.minhash_pairs(ds, threshold=0.5, n_perm=128, bands=32)
    small_pdf = (small.to_pandas() if hasattr(small, "to_pandas") else small)
    small_pdf = small_pdf.sort_values(["doc_a", "doc_b"], ignore_index=True)

    monkeypatch.setattr(dedup, "_SMALL_BANDED_ROWS", 0)
    monkeypatch.setattr(dedup, "_SMALL_CANDIDATES", 0)
    big = dedup.minhash_pairs(ds, threshold=0.5, n_perm=128, bands=32)
    big_pdf = (big.to_pandas() if hasattr(big, "to_pandas") else big)
    big_pdf = big_pdf.sort_values(["doc_a", "doc_b"], ignore_index=True)

    pd.testing.assert_frame_equal(
        small_pdf.round({"sim": 9}), big_pdf.round({"sim": 9})
    )
    assert len(small_pdf) > 0  # the comparison actually exercised pairs

    # third leg: past _PAIR_BROADCAST_ROWS the chained hash_join fallback
    # engages — it must reproduce the broadcast-pair verify exactly
    monkeypatch.setattr(dedup, "_PAIR_BROADCAST_ROWS", 0)
    joinpath = dedup.minhash_pairs(ds, threshold=0.5, n_perm=128, bands=32)
    join_pdf = (joinpath.to_pandas()
                if hasattr(joinpath, "to_pandas") else joinpath)
    join_pdf = join_pdf.sort_values(["doc_a", "doc_b"], ignore_index=True)
    pd.testing.assert_frame_equal(
        small_pdf.round({"sim": 9}), join_pdf.round({"sim": 9})
    )


def test_ivf_build_reuses_persisted_layout(ray_session, tmp_path):
    """Same source fingerprint → the second build is a no-op (cells stay
    byte-untouched); changed fingerprint → rebuild."""
    import os

    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import build_ivf_index

    rng = np.random.default_rng(2)
    df = pd.DataFrame({
        "vec_id": np.arange(300, dtype=np.int64),
        "embedding": list(rng.standard_normal((300, 16))),
    })
    ds = ray.data.from_pandas(df)
    idx = str(tmp_path / "ivf")
    build_ivf_index(ds, idx, source_tag="v1")

    def snapshot():
        out = {}
        for root, _d, files in os.walk(os.path.join(idx, "cells")):
            for f in files:
                p = os.path.join(root, f)
                out[p] = os.stat(p).st_mtime_ns
        return out

    before = snapshot()
    assert before
    meta = build_ivf_index(ds, idx, source_tag="v1")  # cache hit
    assert snapshot() == before
    assert meta["source_tag"] == "v1"
    build_ivf_index(ds, idx, source_tag="v2")  # fingerprint change → rebuild
    assert snapshot() != before


def test_knn_ivf_tiny_and_empty_probe_edges(ray_session, tmp_path):
    """Degenerate corpora: a tiny vector set still answers exactly; probing
    an index whose probed cells are all empty returns a typed empty frame."""
    import os

    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import (
        build_ivf_index,
        knn_brute_force,
        knn_ivf_query,
    )

    rng = np.random.default_rng(4)
    df = pd.DataFrame({
        "vec_id": np.arange(5, dtype=np.int64),
        "embedding": list(rng.standard_normal((5, 8))),
    })
    ds = ray.data.from_pandas(df)
    idx = str(tmp_path / "tiny")
    build_ivf_index(ds, idx, n_centroids=4, replicas=4)  # full replication
    q = np.stack(df["embedding"].to_numpy())[:2]
    got = knn_ivf_query(idx, q, k=3)
    exact = knn_brute_force(ds, q, k=3)
    assert got[["query_idx", "vec_id", "rank"]].equals(
        exact[["query_idx", "vec_id", "rank"]]
    )

    # empty-probe edge: remove every cell dir, query must not crash
    import shutil

    for d in os.listdir(os.path.join(idx, "cells")):
        shutil.rmtree(os.path.join(idx, "cells", d))
    empty = knn_ivf_query(idx, q, k=3)
    assert len(empty) == 0 and list(empty.columns) == [
        "query_idx", "vec_id", "cos", "rank",
    ]


def test_shingle_pairs_exact_and_capped(ray_session):
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.pipelines.dedup import shingle_pairs

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "one two three four five six",       # shares 5-grams with doc 1
            "zero one two three four five",      # overlap with 0
            "totally different words in here now",
            "one two three four five six",       # exact dup of doc 0
            "boiler plate boiler plate boiler",  # short, own shingle
            "boiler plate boiler plate boiler",  # dup of 4
        ],
    })
    out = (
        shingle_pairs(ray.data.from_pandas(df).repartition(3), shingle_w=5)
        .to_pandas().sort_values(["doc_a", "doc_b"], ignore_index=True)
    )
    got = {(int(a), int(b)): int(n) for a, b, n in
           out[["doc_a", "doc_b", "n_shared"]].values}
    # docs 0/3 are identical: share both of their two 5-gram shingles
    assert got[(0, 3)] == 2
    # docs 0/1 overlap on "one two three four five"
    assert got[(0, 1)] == 1 and got[(1, 3)] == 1
    assert got[(4, 5)] == 1
    assert not any(2 in p for p in got)

    # cap: max_bucket=1 keeps only the first doc of each shingle's list ->
    # no pairs survive anywhere
    capped = shingle_pairs(
        ray.data.from_pandas(df).repartition(3), shingle_w=5, max_bucket=1
    ).to_pandas()
    assert len(capped) == 0


def test_mmr_diversifies_and_lam1_is_plain_topk(ray_session):
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import (
        knn_brute_force,
        knn_mmr,
        mmr_select,
    )

    rng = np.random.default_rng(11)
    base = rng.normal(size=(3, 16))
    # vectors 0/1 are near-duplicates of base[0]; 2..4 spread across bases
    vecs = np.stack([
        base[0], base[0] + 1e-3 * rng.normal(size=16),
        base[1], base[1] + 1e-3 * rng.normal(size=16),
        base[2],
    ])
    q = base[0] + 0.1 * rng.normal(size=16)
    df = pd.DataFrame({
        "vec_id": np.arange(5, dtype=np.int64),
        "embedding": [v.astype(np.float32) for v in vecs],
    })
    ds = ray.data.from_pandas(df).repartition(2)

    # lam=1: MMR degenerates to plain cosine order
    plain = knn_brute_force(ds, q[None, :], k=3)
    m1 = knn_mmr(ds, q, k=3, n_candidates=5, lam=1.0)
    assert m1["vec_id"].tolist() == plain["vec_id"].tolist()

    # lam=0.5: after picking one of the near-dup pair, the other must NOT be
    # second — diversity pushes a different cluster in
    m5 = knn_mmr(ds, q, k=3, n_candidates=5, lam=0.5)
    first_two = set(m5["vec_id"].tolist()[:2])
    assert first_two != {0, 1}

    # deterministic tie-break: identical vectors select by smaller vec_id
    same = np.stack([base[0], base[0]])
    out = mmr_select(base[0], np.array([9, 4], dtype=np.int64), same, k=1)
    assert out["vec_id"].tolist() == [4]


def test_mmr_entry_matches_sql_oracle(ray_session):
    """knn_mmr_top10 (rounded greedy, round_dp=6) reproduces the unrolled
    10-step DuckDB greedy bit-for-bit at sf0.001."""
    import duckdb

    from archivesspace_virgo_ray.pipelines.oracles.ann import (
        _knn_mmr_sql,
        knn_mmr_top10,
    )

    sf = "/root/testdata/sf0.001"
    got = knn_mmr_top10(sf).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(_knn_mmr_sql()).df()
    con.close()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the first pick is pure relevance (no diversity term yet), and every
    # later pick's score differs from lam*cos by at most (1-lam)*max|sim|<=0.3
    assert abs(got["mmr"].iloc[0] - round(0.7 * got["cos"].iloc[0], 6)) < 1e-9
    assert (np.abs(got["mmr"] - 0.7 * got["cos"]) <= 0.3 + 1e-9).all()


def test_quantize_embeddings_exact_and_bounded(ray_session):
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import quantize_embeddings

    df = pd.DataFrame({
        "vec_id": pd.Series([7, 8, 9], dtype=np.int64),
        "embedding": [
            np.array([1.0, -0.5, 0.25]),
            np.array([0.0, 0.0, 0.0]),        # zero vector
            np.array([-2.0, 2.0, 1.0]),
        ],
    })
    out = quantize_embeddings(ray.data.from_pandas(df).repartition(2)) \
        .to_pandas().sort_values(["vec_id", "dim"], ignore_index=True)
    assert len(out) == 9
    v7 = out[out.vec_id == 7]
    assert v7["q"].tolist() == [127, -63, 32]  # floor(127*x/1 + .5)
    assert v7["scale"].iloc[0] == 1.0
    v8 = out[out.vec_id == 8]
    assert v8["q"].tolist() == [0, 0, 0] and v8["scale"].iloc[0] == 0.0
    assert out["q"].abs().max() <= 127
    # dequantized cosine stays close to exact on the real corpus slice
    emb = ray.data.read_parquet(
        "/root/testdata/sf0.001/embeddings.parquet",
        columns=["vec_id", "embedding"],
    )
    qt = quantize_embeddings(emb).to_pandas()
    wide = qt.pivot(index="vec_id", columns="dim", values="q").to_numpy(float)
    scales = qt.groupby("vec_id")["scale"].first().to_numpy()
    deq = wide * scales[:, None] / 127.0
    src = emb.to_pandas().sort_values("vec_id")
    orig = np.stack(src["embedding"].to_numpy()).astype(np.float64)
    cos = np.sum(
        deq / np.linalg.norm(deq, axis=1, keepdims=True)
        * orig / np.linalg.norm(orig, axis=1, keepdims=True), axis=1)
    assert cos.min() > 0.999


def test_ivf_incremental_add(ray_session, tmp_path):
    """Vectors added after the build are findable through the same query
    path; a planted duplicate of the query ranks first; recall over the
    combined corpus stays usable."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import (
        add_to_ivf_index,
        build_ivf_index,
        knn_brute_force,
        knn_ivf_query,
    )

    rng = np.random.default_rng(5)
    base = pd.DataFrame({
        "vec_id": pd.Series(np.arange(300), dtype=np.int64),
        "embedding": [v for v in rng.normal(size=(300, 16))],
    })
    qv = rng.normal(size=16)
    extra = pd.DataFrame({
        "vec_id": pd.Series([1000, 1001], dtype=np.int64),
        "embedding": [qv.copy(), rng.normal(size=16)],  # 1000 = exact dup of q
    })
    idx = str(tmp_path / "ivf")
    build_ivf_index(ray.data.from_pandas(base), idx, n_centroids=8, replicas=3)
    r = add_to_ivf_index(ray.data.from_pandas(extra), idx)
    assert r["gen"] == 1 and r["n_files"] > 0

    got = knn_ivf_query(idx, qv[None, :], k=10, n_probe=3)
    assert got.iloc[0]["vec_id"] == 1000  # the planted duplicate wins
    both = pd.concat([base, extra], ignore_index=True)
    exact = knn_brute_force(ray.data.from_pandas(both), qv[None, :], k=10)
    recall = len(set(got["vec_id"]) & set(exact["vec_id"])) / 10
    assert recall >= 0.9
    # a second add bumps the generation and stays crash-clean
    r2 = add_to_ivf_index(ray.data.from_pandas(extra.assign(vec_id=[2000, 2001])), idx)
    assert r2["gen"] == 2


def test_quantized_dot_product_preserves_ranking(ray_session):
    """Searching with int8-quantized vectors (integer dot products) keeps
    top-10 recall >= 0.9 vs exact float cosine on the bench embeddings —
    the measurement that justifies the 4x cell-storage cut."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import (
        knn_brute_force,
        quantize_embeddings,
    )

    src = "/root/testdata/sf0.001/embeddings.parquet"
    emb = ray.data.read_parquet(src, columns=["vec_id", "embedding"])
    qt = quantize_embeddings(emb).to_pandas()
    wide = qt.pivot(index="vec_id", columns="dim", values="q")
    ids = wide.index.to_numpy(np.int64)
    qmat8 = wide.to_numpy(np.int64)
    scales = qt.groupby("vec_id")["scale"].first().reindex(wide.index).to_numpy()

    pdf = emb.to_pandas().sort_values("vec_id")
    exactm = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
    q = exactm[:3]
    exact = knn_brute_force(emb, q, k=10)

    # int8 path: integer matmul, then per-vector scale correction + norm
    deq = qmat8 * scales[:, None] / 127.0
    deqn = deq / np.maximum(np.linalg.norm(deq, axis=1, keepdims=True), 1e-12)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = deqn @ qn.T
    recalls = []
    for qi in range(3):
        approx = set(ids[np.argsort(-sims[:, qi])[:10]])
        truth = set(exact[exact["query_idx"] == qi]["vec_id"])
        recalls.append(len(approx & truth) / 10)
    assert np.mean(recalls) >= 0.9


def test_grouped_quantiles_matches_numpy_per_group(ray_session):
    import ray.data

    from archivesspace_virgo_ray.pipelines.quantiles import grouped_quantiles

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b", "c", "d", "e"], 200),
        "v": rng.normal(size=1000) * 100,
    })
    # group edge cases: constant group, a NaN-poisoned group, an inf value
    df.loc[df["g"] == "c", "v"] = 5.0
    df.loc[df.index[df["g"] == "d"][0], "v"] = np.nan
    df.loc[df.index[df["g"] == "e"][0], "v"] = np.inf
    qs = [0.1, 0.5, 0.9]
    out = grouped_quantiles(
        ray.data.from_pandas(df).repartition(6), "g", "v", qs, n_bins=64
    )
    for g, sub in df.groupby("g"):
        got = out[out["g"] == g].sort_values("q")["value"].to_numpy()
        v = sub["v"].to_numpy()
        if np.isnan(v).any():
            assert np.isnan(got).all()
            continue
        want = np.quantile(v, qs)
        assert np.allclose(got, want, rtol=0, atol=1e-9, equal_nan=True), \
            (g, got, want)


def test_semantic_dedup_keeps_one_rep_per_component(ray_session):
    """Planted embedding clusters: every member maps to the component-min
    rep, exactly one keep per component, singletons keep themselves — on
    BOTH assignment paths (broadcast dict and the left-join scale path)."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.dedup import semantic_dedup

    rng = np.random.default_rng(3)
    dim = 16
    a = rng.standard_normal(dim)
    b = rng.standard_normal(dim)
    vecs = [
        a, a + 0.001 * rng.standard_normal(dim), a + 0.001 * rng.standard_normal(dim),
        b, b + 0.001 * rng.standard_normal(dim),
        rng.standard_normal(dim), rng.standard_normal(dim),
    ]
    pdf = pd.DataFrame(
        {"vec_id": np.arange(10, 17, dtype=np.int64),
         "embedding": [list(map(float, v)) for v in vecs]}
    )
    ds = ray.data.from_pandas(pdf).repartition(3)

    outs = []
    for dme in (None, 0):  # None → driver union-find; 0 → Dataset components
        out = semantic_dedup(ds, threshold=0.95, n_planes=6, seed=11,
                             dim=dim, driver_max_edges=dme)
        odf = (out.to_pandas() if hasattr(out, "to_pandas") else out)
        odf = odf.sort_values("vec_id", ignore_index=True)
        odf["rep_id"] = odf["rep_id"].astype(np.int64)
        odf["keep"] = odf["keep"].astype(bool)
        outs.append(odf)

    for odf in outs:
        assert odf["vec_id"].tolist() == list(range(10, 17))
        assert odf["rep_id"].tolist() == [10, 10, 10, 13, 13, 15, 16]
        assert odf["keep"].tolist() == [True, False, False, True, False, True, True]
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_pq_encode_contract(ray_session, sf_dir):
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import (
        pq_encode, train_pq_codebooks,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    books = train_pq_codebooks(ds, m=8, k=16)
    assert books.shape == (8, 16, 8)
    codes = pq_encode(ds, books).to_pandas().sort_values(
        "vec_id", ignore_index=True)
    assert len(codes) == ds.count()
    packed = codes["pq_code"].to_numpy(np.int64)
    # m=8 x 4-bit codes occupy exactly the low 32 bits
    assert (packed >= 0).all() and (packed < (1 << 32)).all()
    # deterministic: re-encode is identical (seeded training + argmax ties)
    codes2 = pq_encode(ds, books).to_pandas().sort_values(
        "vec_id", ignore_index=True)
    assert (codes2["pq_code"].to_numpy(np.int64) == packed).all()


def test_knn_pq_recall_and_exact_scores(ray_session, sf_dir):
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import knn_pq

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    pdf = ds.to_pandas()
    mat = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
    q = mat[:3]
    exact = knn_brute_force(ds, q, k=10)
    approx = knn_pq(ds, q, k=10)
    recalls = []
    for qi in range(3):
        e = exact[exact["query_idx"] == qi].set_index("vec_id")["cos"]
        a = approx[approx["query_idx"] == qi].set_index("vec_id")["cos"]
        recalls.append(len(set(e.index) & set(a.index)) / len(e))
        # rerank is EXACT up to BLAS-kernel ULP variance: both paths compute
        # `mat @ q.T` but over different batch shapes (full scan vs gathered
        # shortlist), and a small-enough batch hits gemv instead of gemm,
        # which can differ in the last bit of the k-reduction.
        common = sorted(set(e.index) & set(a.index))
        assert np.allclose(e.loc[common].to_numpy(),
                           a.loc[common].to_numpy(), rtol=0, atol=1e-12)
        # a corpus vector queried against itself must return itself first
        self_id = int(pdf["vec_id"].iloc[qi])
        assert int(a.index[a.to_numpy().argmax()]) == self_id or \
            self_id in a.index
    assert np.mean(recalls) >= 0.8  # measured 0.95 at sf0.01, 1.0 at sf0.001


def test_winnow_fingerprints_guarantee_and_edges(ray_session):
    """The winnowing guarantee: two docs sharing a token run of length
    >= w + k - 1 share at least one fingerprint; docs with fewer than w
    k-grams emit nothing; every fingerprint is one of the doc's k-gram
    hashes (selection samples, never invents)."""
    import hashlib

    import ray.data

    from archivesspace_virgo_ray.functions.tokenize import TOKEN_RE
    from archivesspace_virgo_ray.pipelines.textstats import winnow_fingerprints

    shared = "alpha beta gamma delta epsilon zeta eta"  # 7 = w + k - 1 tokens
    pdf = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            f"one two {shared} three four five six seven",
            f"{shared} totally different trailing words here now",
            "short doc only",                       # < k tokens: nothing
            "just six tokens never enough window",  # 3 k-grams < w: nothing
        ],
    })
    out = winnow_fingerprints(
        ray.data.from_pandas(pdf).repartition(2), k=4, w=4
    ).to_pandas()

    f0 = set(out.loc[out["doc_id"] == 0, "fp"])
    f1 = set(out.loc[out["doc_id"] == 1, "fp"])
    assert f0 & f1, "docs sharing a >= w+k-1 token run must share a fingerprint"
    assert not (out["doc_id"] >= 2).any()

    # sampling property: doc 0's fps are a subset of its k-gram hashes
    toks = TOKEN_RE.findall(pdf.loc[0, "text"].lower())
    kh = {int(hashlib.md5(" ".join(toks[i:i + 4]).encode()).hexdigest()[:8], 16)
          for i in range(len(toks) - 3)}
    assert f0 <= kh


def test_label_centroids_exact(ray_session):
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import label_centroids

    pdf = pd.DataFrame({
        "label": np.array([0, 0, 1], np.int32),
        "embedding": [
            np.array([1.0, 2.0], np.float32),
            np.array([3.0, 4.0], np.float32),
            np.array([5.0, 6.0], np.float32),
        ],
    })
    out = label_centroids(ray.data.from_pandas(pdf).repartition(2))
    assert out["mean"].tolist() == [2.0, 3.0, 5.0, 6.0]
    assert out["label"].tolist() == [0, 0, 1, 1]
    assert out["dim"].tolist() == [1, 2, 1, 2]


def test_knn_label_confusion_planted_clusters(ray_session):
    """Two tight clusters: every vector's 1-NN stays inside its cluster, so
    the confusion matrix is diagonal — except one mislabeled point planted
    inside cluster 0, which contributes off-diagonal mass both ways."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import knn_label_confusion

    rng = np.random.default_rng(7)
    rows = []
    vid = 0
    for label, center in ((0, np.array([10.0, 0.0, 0.0])),
                          (1, np.array([0.0, 10.0, 0.0]))):
        for _ in range(5):
            rows.append({"vec_id": vid, "label": np.int32(label),
                         "embedding": (center + rng.normal(0, 0.01, 3))
                         .astype(np.float32)})
            vid += 1
    # mislabeled point: sits in cluster 0's blob, carries label 1
    rows.append({"vec_id": vid, "label": np.int32(1),
                 "embedding": np.array([10.0, 0.01, 0.0], np.float32)})
    out = knn_label_confusion(
        ray.data.from_pandas(pd.DataFrame(rows)).repartition(3))
    m = {(r.label, r.nn_label): r.n for r in out.itertuples()}
    # cluster-1 points all resolve to cluster-1 neighbors
    assert m[(1, 1)] == 5
    # the mislabeled point's NN has label 0 -> one (1, 0) entry
    assert m[(1, 0)] == 1
    # cluster-0 points: their NNs are in the same blob, but the blob now
    # contains the label-1 impostor -> (0,0) + (0,1) must sum to 5
    assert m.get((0, 0), 0) + m.get((0, 1), 0) == 5 and m.get((0, 1), 0) >= 1


def _confusion_fixture() -> pd.DataFrame:
    rng = np.random.default_rng(7)
    rows = []
    vid = 0
    for label, center in ((0, np.array([10.0, 0.0, 0.0])),
                          (1, np.array([0.0, 10.0, 0.0]))):
        for _ in range(5):
            rows.append({"vec_id": vid, "label": np.int32(label),
                         "embedding": (center + rng.normal(0, 0.01, 3))
                         .astype(np.float32)})
            vid += 1
    rows.append({"vec_id": vid, "label": np.int32(1),
                 "embedding": np.array([10.0, 0.01, 0.0], np.float32)})
    return pd.DataFrame(rows)


def test_knn_label_confusion_ivf_single_cell_matches_exact(ray_session):
    """n_centroids=1 puts every vector in one cell, so the IVF shortlist
    path degenerates to the exact leave-one-out answer — the parity anchor
    for the 100-TB route."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import knn_label_confusion

    pdf = _confusion_fixture()
    exact = knn_label_confusion(
        ray.data.from_pandas(pdf).repartition(3), mode="exact")
    ivf = knn_label_confusion(
        ray.data.from_pandas(pdf).repartition(3), mode="ivf", n_centroids=1)
    pd.testing.assert_frame_equal(exact, ivf)


def test_knn_label_confusion_auto_routes_past_threshold(ray_session):
    """mode='auto' with exact_max_rows=0 must take the IVF route (forced-
    threshold test for the automatic 100-TB switch)."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.similarity import knn_label_confusion

    pdf = _confusion_fixture()
    exact = knn_label_confusion(
        ray.data.from_pandas(pdf).repartition(3), mode="exact")
    auto = knn_label_confusion(
        ray.data.from_pandas(pdf).repartition(3), mode="auto",
        exact_max_rows=0, n_centroids=1)
    pd.testing.assert_frame_equal(exact, auto)


def test_corpus_clean_no_materialize_same_survivors(ray_session, docs_df):
    """materialize_survivors=False (the >5M-row auto path: re-read instead
    of spilling the survivor slice) keeps the identical doc set."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.curation import corpus_clean

    base = corpus_clean(ray.data.from_pandas(docs_df), min_tokens=2)
    base = base.to_pandas() if hasattr(base, "to_pandas") else base
    forced = corpus_clean(ray.data.from_pandas(docs_df), min_tokens=2,
                          materialize_survivors=False)
    forced = forced.to_pandas() if hasattr(forced, "to_pandas") else forced
    assert sorted(base["doc_id"]) == sorted(forced["doc_id"])


def test_corpus_clean_auto_materialize_switch(ray_session, docs_df):
    """n_rows past CORPUS_CLEAN_MATERIALIZE_MAX_ROWS flips the auto switch
    off; results must not change. (n_rows also engages exact_dedup's keyed
    fallback — both scale paths together.)"""
    import ray.data

    from archivesspace_virgo_ray.pipelines import curation
    from archivesspace_virgo_ray.pipelines.curation import corpus_clean

    base = corpus_clean(ray.data.from_pandas(docs_df), min_tokens=2)
    base = base.to_pandas() if hasattr(base, "to_pandas") else base
    old = curation.CORPUS_CLEAN_MATERIALIZE_MAX_ROWS
    try:
        curation.CORPUS_CLEAN_MATERIALIZE_MAX_ROWS = 1
        forced = corpus_clean(ray.data.from_pandas(docs_df), min_tokens=2,
                              n_rows=len(docs_df))
    finally:
        curation.CORPUS_CLEAN_MATERIALIZE_MAX_ROWS = old
    forced = forced.to_pandas() if hasattr(forced, "to_pandas") else forced
    assert sorted(base["doc_id"]) == sorted(forced["doc_id"])


def test_tfidf_keywords_partition_invariant_and_exact(ray_session):
    """tfidf_keywords matches a direct pandas computation and is invariant
    to input partitioning; empty docs emit no rows."""
    import ray.data

    from archivesspace_virgo_ray.functions.tokenize import TOKEN_RE
    from archivesspace_virgo_ray.pipelines.textstats import tfidf_keywords

    docs = pd.DataFrame({
        "doc_id": pd.Series([1, 2, 3, 4], dtype=np.int64),
        "text": [
            "apple apple banana cherry",
            "banana banana banana apple",
            "cherry dates",
            "",
        ],
    })
    toks = {d: TOKEN_RE.findall(t.lower()) for d, t in zip(docs.doc_id, docs.text)}
    vocab_set = sorted({t for ts in toks.values() for t in ts})
    dfs = np.array([sum(t in set(ts) for ts in toks.values()) for t in vocab_set],
                   dtype=np.int64)
    vocab = np.asarray(vocab_set, dtype=object)
    n = len(docs)

    a = tfidf_keywords(ray.data.from_pandas(docs).repartition(1),
                       vocab, dfs, n, k=2).to_pandas()
    b = tfidf_keywords(ray.data.from_pandas(docs).repartition(3),
                       vocab, dfs, n, k=2).to_pandas()
    key = ["doc_id", "rank"]
    pd.testing.assert_frame_equal(a.sort_values(key, ignore_index=True),
                                  b.sort_values(key, ignore_index=True))
    a = a.sort_values(key, ignore_index=True)
    assert 4 not in set(a["doc_id"])  # empty doc: no keywords
    # doc 1: apple tf=2 df=2, banana tf=1 df=2, cherry tf=1 df=2 ->
    # top1 apple (tf 2), top2 banana (tie with cherry, term asc)
    d1 = a[a.doc_id == 1]
    assert d1["term"].tolist() == ["apple", "banana"]
    want_top = round(2 * np.log((n + 1) / (2 + 1)), 6)
    assert d1["tfidf"].iloc[0] == pytest.approx(want_top, abs=1e-9)
