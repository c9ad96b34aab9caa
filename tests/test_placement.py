"""Placement hooks: pool actors and merger tasks accept scheduling options;
the pool's fingerprint/rebuild machinery keeps working with a hook set."""

import os

import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.index import placement
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import _POOLS, bm25_topk, get_pool
from archivesspace_virgo_ray.index.update import delete_documents

CORPUS = "/root/testdata/sf0.001/documents.parquet"


def _cfg(s=2, b=4):
    return BuildConfig(n_shards=s, n_buckets=b, text_col="text",
                       id_col="doc_id", meta_cols=("lang", "source"))


def _q(text="the data model", k=5):
    return pa.table({"query_id": pa.array([0], pa.int64()),
                     "text": pa.array([text], pa.string()),
                     "k": pa.array([k], pa.int32())})


def test_pool_placement_hook_and_rebuild(ray_session, tmp_path):
    import ray
    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

    idx = str(tmp_path / "idx")
    build_index(CORPUS, idx, _cfg())
    node = ray.get_runtime_context().get_node_id()
    calls = []

    def pin(index_dir, shard_ids):
        calls.append((index_dir, tuple(shard_ids)))
        return {"scheduling_strategy":
                NodeAffinitySchedulingStrategy(node, soft=True)}

    placement.set_pool_placement(pin)
    try:
        base = bm25_topk(idx, _q()).to_pandas()
        assert len(base) == 5
        assert calls and all(c[0] == idx for c in calls)
        # every shard appears in exactly one actor's assignment
        all_shards = sorted(s for _, sh in calls for s in sh)
        assert all_shards == [0, 1]
        pool1 = get_pool(idx)
        # mutate the index → fingerprint changes → the pool REFRESHES in
        # place (Lucene reopen): same actors keep their placement, so the
        # hook is NOT re-invoked
        n_calls = len(calls)
        delete_documents(idx, [-1])  # a commit that changes no answer
        pool2 = get_pool(idx)
        assert pool2 is pool1 and len(calls) == n_calls
        again = bm25_topk(idx, _q()).to_pandas()
        assert base.equals(again)
        # a RESPAWN (actor-loss recovery path) re-invokes the hook for the
        # fresh actors — placement applies at spawn time
        pool2._spawn()
        pool2.wait_ready()
        assert len(calls) > n_calls
        assert base.equals(bm25_topk(idx, _q()).to_pandas())
    finally:
        placement.set_pool_placement(None)
        _POOLS.pop(idx, None)


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
