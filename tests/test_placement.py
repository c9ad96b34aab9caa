"""Placement hook: the segment-rewrite tasks of a merge accept scheduling
options."""

from archivesspace_virgo_ray.index import placement
from archivesspace_virgo_ray.index.build import BuildConfig, build_index

CORPUS = "/root/testdata/sf0.001/documents.parquet"


def _cfg(s=2, b=4):
    return BuildConfig(n_shards=s, n_buckets=b, text_col="text",
                       id_col="doc_id", meta_cols=("lang", "source"))


def test_merge_placement_hook(ray_session, tmp_path):
    import pandas as pd
    import ray.data

    from archivesspace_virgo_ray.index.update import (
        add_documents,
        merge_segments,
        tiered_merge,
    )

    idx = str(tmp_path / "idx")
    build_index(CORPUS, idx, _cfg())
    for i in range(2):
        delta = pd.DataFrame({
            "doc_id": [990001 + i], "text": ["brand new delta doc"],
            "lang": ["en"], "source": ["s"], "n_chars": [19],
        })
        add_documents(ray.data.from_pandas(delta), idx, _cfg())
    seen = []
    placement.set_merge_placement(
        lambda d: (seen.append(d) or {"num_cpus": 1}))
    try:
        # the tiered fold's rewrite tasks take the same options
        rep = tiered_merge(idx, merge_factor=2, concurrency=2)
        assert len(rep["rounds"]) == 1
        assert seen == [idx]
        rep = merge_segments(idx, concurrency=2)
        assert seen == [idx, idx]
        assert (rep["merged"]).any()
    finally:
        placement.set_merge_placement(None)
