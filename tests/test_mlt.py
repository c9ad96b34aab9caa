"""More-like-this: term selection contract, source exclusion, OR-equivalence."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.mlt import (
    fetch_texts,
    interesting_terms,
    more_like_this,
)

DOCS = [
    (1, "apple apple apple banana common"),
    (2, "apple banana cherry common"),
    (3, "cherry cherry durian common"),
    (4, "durian elderberry common common"),
    (5, "banana cherry elderberry common"),
]


@pytest.fixture(scope="module")
def mlt_idx(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("mlt")
    docs_path = str(root / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t in DOCS], pa.string()),
        }),
        docs_path,
    )
    idx = str(root / "idx")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(
        docs_path, idx,
        BuildConfig(n_shards=2, n_buckets=4, text_col="text", id_col="doc_id",
                    meta_cols=()),
        resume=False,
    )
    return idx, docs_path


def test_fetch_texts_pushdown(mlt_idx):
    _, docs_path = mlt_idx
    got = fetch_texts(docs_path, [1, 4])
    assert got == {1: DOCS[0][1], 4: DOCS[3][1]}


def test_interesting_terms_order(mlt_idx):
    idx, _ = mlt_idx
    # doc 1: apple tf=3 (df 2), banana tf=1 (df 3), common tf=1 (df 5).
    # tf*idf ranks apple first (high tf, low df); 'common' is in every doc
    # (idf smallest) so it comes last.
    got = interesting_terms(idx, {0: DOCS[0][1]}, max_terms=10)[0]
    assert got[0] == "apple"
    assert got[-1] == "common"
    assert set(got) == {"apple", "banana", "common"}


def test_interesting_terms_cap(mlt_idx):
    idx, _ = mlt_idx
    got = interesting_terms(idx, {0: DOCS[0][1]}, max_terms=2)[0]
    assert len(got) == 2 and got[0] == "apple"


def test_mlt_excludes_source_and_matches_or_query(mlt_idx):
    idx, docs_path = mlt_idx
    from archivesspace_virgo_ray.index.query import get_pool

    q = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "doc_id": pa.array([1], pa.int64()),
        "k": pa.array([10], pa.int32()),
    })
    got = more_like_this(idx, docs_path, q).to_pandas()
    assert 1 not in set(got["doc_id"])
    terms = interesting_terms(idx, {0: DOCS[0][1]}, 10)[0]
    explicit = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array([" ".join(terms)], pa.string()),
        "k": pa.array([11], pa.int32()),
    })
    want = get_pool(idx).topk(explicit).to_pandas()
    want = want[want["doc_id"] != 1].reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert np.allclose(got["score"], want["score"])
    assert list(got["rank"]) == list(range(1, len(got) + 1))


def test_mlt_unknown_source_empty(mlt_idx):
    idx, docs_path = mlt_idx
    q = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "doc_id": pa.array([999], pa.int64()),
        "k": pa.array([5], pa.int32()),
    })
    out = more_like_this(idx, docs_path, q)
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "rank", "doc_id", "score"]
