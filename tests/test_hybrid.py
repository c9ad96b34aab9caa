"""Hybrid BM25 ⊕ dense retrieval with reciprocal-rank fusion."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def hybrid_result(ray_session):
    from archivesspace_virgo_ray.pipelines.oracles.ann import hybrid_rrf_topk

    return hybrid_rrf_topk(SF_DIR)


def _oracle() -> pd.DataFrame:
    from archivesspace_virgo_ray.pipelines.oracles.ann import _hybrid_sql

    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{os.path.join(SF_DIR, t)}.parquet'"
        )
    return con.execute(_hybrid_sql()).df()


def test_hybrid_matches_oracle(hybrid_result):
    got = hybrid_result.sort_values(["query_id", "rank"], ignore_index=True)
    want = _oracle().sort_values(["query_id", "rank"], ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hybrid_fuses_both_sides(hybrid_result):
    """Every result doc must come from a side list; docs present in BOTH
    top-HYBRID_DEPTH lists must outrank same-side-only docs of equal rank."""
    from archivesspace_virgo_ray.pipelines.oracles.ann import (
        HYBRID_DEPTH,
        RRF_K,
        _dense_ranked,
    )
    from archivesspace_virgo_ray.pipelines.oracles.common import (
        BM25_QUERIES,
        _build_docs_index,
        _ranked_topk,
    )

    idx = _build_docs_index(SF_DIR)
    lex = _ranked_topk(idx, BM25_QUERIES, k=HYBRID_DEPTH)
    den = _dense_ranked(SF_DIR, BM25_QUERIES, HYBRID_DEPTH)
    allowed = set(map(tuple, lex[["query_id", "doc_id"]].to_numpy())) | set(
        map(tuple, den[["query_id", "doc_id"]].to_numpy())
    )
    for row in hybrid_result.itertuples():
        assert (row.query_id, row.doc_id) in allowed
    # rrf bounds: single-side max is 1/(K+1); both-sides min is 2/(K+depth)
    single_max = 1.0 / (RRF_K + 1)
    both = set(map(tuple, lex[["query_id", "doc_id"]].to_numpy())) & set(
        map(tuple, den[["query_id", "doc_id"]].to_numpy())
    )
    for row in hybrid_result.itertuples():
        if (row.query_id, row.doc_id) in both:
            assert row.rrf > single_max - 1e-9 or row.rrf > 2.0 / (
                RRF_K + HYBRID_DEPTH
            ) - 1e-9


def test_hybrid_rank_is_dense_per_query(hybrid_result):
    for _, g in hybrid_result.groupby("query_id"):
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        rr = g["rrf"].to_numpy()
        assert (np.diff(rr) <= 1e-12).all()
