"""True crash-resume: SIGKILL the build mid-run in a subprocess, resume in a
fresh process, assert the index is byte-identical to an uninterrupted build.
Plus: head-term salting balance evidence and the warm actor-pool query path."""

import json
import glob
import os
import signal
import subprocess
import sys
import time

import pyarrow as pa
import pytest

from archivesspace_virgo_ray.corpus import generate_queries, write_corpus
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.segments import read_stats
from archivesspace_virgo_ray.oracle import OracleIndex

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILD_SCRIPT = """
import sys, ray
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
build_index({corpus!r}, {idx!r}, BuildConfig(n_shards=2, n_buckets=4), resume=True)
print("BUILD_DONE")
ray.shutdown()
"""


@pytest.fixture(scope="module")
def kill_corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("killcorpus"))
    write_corpus(d, 600, seed=42, rows_per_file=100)
    return d


def _run_build(corpus, idx, kill_after_manifests=None, timeout=240):
    proc = subprocess.Popen(
        [sys.executable, "-c", BUILD_SCRIPT.format(repo=REPO, corpus=corpus, idx=idx)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    if kill_after_manifests is None:
        out, _ = proc.communicate(timeout=timeout)
        assert "BUILD_DONE" in out
        return True
    # poll the segment dir; SIGKILL the whole build as soon as some (but
    # not all) segments have committed
    deadline = time.time() + timeout
    pat = os.path.join(idx, "segments", "s*_b*", "manifest.json")
    while time.time() < deadline:
        if proc.poll() is not None:
            return False  # finished before we could kill it
        if len(glob.glob(pat)) >= kill_after_manifests:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            return True
        time.sleep(0.02)
    proc.kill()
    raise TimeoutError("build never produced segments")


def test_sigkill_mid_build_then_resume_byte_identical(kill_corpus, tmp_path_factory):
    base = tmp_path_factory.mktemp("kill")
    idx_clean = str(base / "clean")
    idx_killed = str(base / "killed")

    _run_build(kill_corpus, idx_clean)

    killed = _run_build(kill_corpus, idx_killed, kill_after_manifests=1)
    if not killed:
        pytest.skip("build finished before kill fired (machine too fast)")
    n_partial = len(glob.glob(os.path.join(idx_killed, "segments", "s*_b*", "manifest.json")))
    assert 1 <= n_partial < 8, f"expected a partial index, got {n_partial}/8 segments"
    # crashed run must not have committed the build's marker
    assert not os.path.exists(os.path.join(idx_killed, "_global", "gens", "g0000.json"))

    _run_build(kill_corpus, idx_killed)  # resume in a fresh process

    for seg in sorted(os.listdir(os.path.join(idx_clean, "segments"))):
        for f in ("terms.parquet", "blocks.parquet", "docs.bin", "postings.bin"):
            a = open(os.path.join(idx_clean, "segments", seg, f), "rb").read()
            b = open(os.path.join(idx_killed, "segments", seg, f), "rb").read()
            assert a == b, f"{seg}/{f} differs after kill+resume"
    sa, sb = read_stats(idx_clean), read_stats(idx_killed)
    for key in ("n_docs", "total_len", "avgdl", "n_postings"):
        assert sa[key] == sb[key]


def test_head_term_salting_balance(kill_corpus, tmp_path_factory, ray_session):
    """Doc-sharding IS the head-term salt: with ~20% head-term density the
    per-(shard,bucket) posting counts must stay balanced (no reducer gets a
    corpus-sized group)."""
    idx = str(tmp_path_factory.mktemp("skew") / "idx")
    build_index(kill_corpus, idx, BuildConfig(n_shards=4, n_buckets=4), resume=False)
    counts = []
    for m in sorted(glob.glob(os.path.join(idx, "segments", "s*_b*", "manifest.json"))):
        counts.append(json.load(open(m))["n_postings"])
    assert len(counts) == 16
    import numpy as np

    counts = np.array(counts)
    assert counts.max() <= 3 * np.median(counts), (
        f"skewed groups: max={counts.max()} median={np.median(counts)}"
    )


def test_actor_pool_query_serving(kill_corpus, tmp_path_factory, ray_session):
    import glob as g

    import pyarrow.parquet as pq
    import ray.data

    from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
    from archivesspace_virgo_ray.index.query import bm25_serve

    idx = str(tmp_path_factory.mktemp("serve") / "idx")
    build_index(kill_corpus, idx, BuildConfig(n_shards=2, n_buckets=4), resume=False)

    parts = [pq.read_table(p) for p in sorted(g.glob(kill_corpus + "/*.parquet"))]
    t = pa.concat_tables(parts)
    ids = doc_id_from_key(t["repo"].to_pylist(), t["path"].to_pylist(), t["commit"].to_pylist())
    oracle = OracleIndex(ids.tolist(), t["content"].to_pylist())

    queries = generate_queries()
    out = bm25_serve(idx, ray.data.from_arrow(queries), concurrency=2).to_pandas()
    for qid, text, k in zip(
        queries["query_id"].to_pylist(), queries["text"].to_pylist(), queries["k"].to_pylist()
    ):
        expect = oracle.score_query(text, k)
        sub = out[out["query_id"] == qid].sort_values("rank")
        assert sub["doc_id"].tolist() == [d for d, _ in expect], text
        assert sub["score"].tolist() == [s for _, s in expect], text


def test_serve_sizes_its_actor_pool_to_the_input(tmp_path, ray_session):
    """``bm25_serve`` autoscales from one actor: a one-block query Dataset
    starts one ``_ServeWorker`` (each loads the whole index), not
    ``concurrency`` of them."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from archivesspace_virgo_ray.index.query import bm25_serve, bm25_topk

    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(range(40), pa.int64()),
                             "text": [f"w{i % 7} w{i % 3} x" for i in range(40)]}), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, BuildConfig(n_shards=2, n_buckets=2, text_col="text",
                                      id_col="doc_id", meta_cols=()))
    queries = pa.table({"query_id": pa.array([0, 1], pa.int64()),
                        "text": pa.array(["w1", "x w2"], pa.string()),
                        "k": pa.array([3, 3], pa.int32())})

    def serve_actors():
        return {aid for aid, a in ray._private.state.actors().items()
                if "_ServeWorker" in a.get("ActorClassName", "")}

    before = serve_actors()
    got = bm25_serve(idx, ray.data.from_arrow(queries), concurrency=4).to_pandas()
    assert len(serve_actors() - before) == 1
    got = got.sort_values(["query_id", "rank"], ignore_index=True)
    expect = bm25_topk(idx, queries).to_pandas()
    assert got["doc_id"].tolist() == expect["doc_id"].tolist()
    assert got["score"].tolist() == expect["score"].tolist()


def test_serve_honours_min_match_and_cursor(kill_corpus, tmp_path_factory, ray_session):
    """``bm25_serve`` takes the same side-channel columns as ``bm25_topk``:
    ``min_match`` and a ``cursor_score``/``cursor_doc`` search-after mark
    must restrict its answers exactly as they restrict ``bm25_topk``'s."""
    import ray.data

    from archivesspace_virgo_ray.index.query import bm25_serve, bm25_topk

    idx = str(tmp_path_factory.mktemp("serve_mm") / "idx")
    build_index(kill_corpus, idx, BuildConfig(n_shards=2, n_buckets=4), resume=False)

    texts = ["sort_7 filter_7 map_7 reduce_7", "hash_33 license", "the license"]
    plain = pa.table({"query_id": pa.array([0, 1, 2], pa.int64()),
                      "text": pa.array(texts, pa.string()),
                      "k": pa.array([50, 50, 50], pa.int32())})
    first = bm25_topk(idx, plain).to_pandas()
    mark = first[(first["query_id"] == 2) & (first["rank"] == 5)].iloc[0]
    queries = plain.append_column(
        "min_match", pa.array([3, 2, None], pa.int32())
    ).append_column(
        "cursor_score", pa.array([None, None, round(float(mark["score"]), 6)],
                                 pa.float64())
    ).append_column(
        "cursor_doc", pa.array([None, None, int(mark["doc_id"])], pa.int64()))

    expect = bm25_topk(idx, queries).to_pandas()
    for qid in (0, 1, 2):  # each side channel changes bm25_topk's answer
        assert (expect[expect["query_id"] == qid]["doc_id"].tolist()
                != first[first["query_id"] == qid]["doc_id"].tolist()), qid

    got = bm25_serve(idx, ray.data.from_arrow(queries), concurrency=1).to_pandas()
    got = got.sort_values(["query_id", "rank"], ignore_index=True)
    assert got["query_id"].tolist() == expect["query_id"].tolist()
    assert got["rank"].tolist() == expect["rank"].tolist()
    assert got["doc_id"].tolist() == expect["doc_id"].tolist()
    assert got["score"].tolist() == expect["score"].tolist()


NCPU_BUILD_SCRIPT = """
import sys, ray
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus={ncpu}, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
build_index({corpus!r}, {idx!r}, BuildConfig(n_shards=2, n_buckets=4), resume=False)
print("BUILD_DONE")
ray.shutdown()
"""


def test_num_cpus_invariance(kill_corpus, tmp_path_factory):
    """SURVEY §5(f): the index must be byte-identical across parallelism
    levels (doc ids content-derived, segment writes deterministic)."""
    base = tmp_path_factory.mktemp("ncpu")
    paths = {}
    for ncpu in (2, 8):
        idx = str(base / f"idx{ncpu}")
        out = subprocess.run(
            [sys.executable, "-c",
             NCPU_BUILD_SCRIPT.format(repo=REPO, corpus=kill_corpus, idx=idx, ncpu=ncpu)],
            capture_output=True, text=True, timeout=240,
        )
        assert "BUILD_DONE" in out.stdout, out.stderr[-500:]
        paths[ncpu] = idx
    for seg in sorted(os.listdir(os.path.join(paths[2], "segments"))):
        for f in ("terms.parquet", "blocks.parquet", "docs.bin", "postings.bin"):
            a = open(os.path.join(paths[2], "segments", seg, f), "rb").read()
            b = open(os.path.join(paths[8], "segments", seg, f), "rb").read()
            assert a == b, f"{seg}/{f} differs between num_cpus=2 and 8"


# a Dataset source: a path this small would build on the driver, unstaged
STAGED_BUILD_SCRIPT = """
import sys, ray, ray.data
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
from archivesspace_virgo_ray.index.build import BuildConfig, build_index
build_index(ray.data.read_parquet({corpus!r}), {idx!r},
            BuildConfig(n_shards=2, n_buckets=4), resume=True)
print("BUILD_DONE")
ray.shutdown()
"""


def _run_staged_build(corpus, idx, kill_on_staging=False, timeout=240):
    proc = subprocess.Popen(
        [sys.executable, "-c",
         STAGED_BUILD_SCRIPT.format(repo=REPO, corpus=corpus, idx=idx)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    if not kill_on_staging:
        out, _ = proc.communicate(timeout=timeout)
        assert "BUILD_DONE" in out
        return True
    # SIGKILL while the _staging partition dirs are being written — the
    # crash window where a partial, uncommitted staging tree exists
    deadline = time.time() + timeout
    pat = os.path.join(idx, "_staging", "gkey=*")
    while time.time() < deadline:
        if proc.poll() is not None:
            return False  # finished before we could kill it
        if len(glob.glob(pat)) >= 1:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            return True
        time.sleep(0.005)
    proc.kill()
    raise TimeoutError("staged build never wrote staging partitions")


def test_sigkill_mid_staging_then_resume_byte_identical(kill_corpus,
                                                        tmp_path_factory):
    """Crash INSIDE the exchange's staging write: resume must discard the
    partial staging tree (it redoes the staging from scratch) and produce an
    index byte-identical to an uninterrupted build."""
    base = tmp_path_factory.mktemp("killstage")
    idx_clean = str(base / "clean")
    idx_killed = str(base / "killed")

    _run_staged_build(kill_corpus, idx_clean)

    killed = _run_staged_build(kill_corpus, idx_killed, kill_on_staging=True)
    if not killed:
        pytest.skip("staging finished before kill fired (machine too fast)")
    assert not os.path.exists(os.path.join(idx_killed, "_global", "gens", "g0000.json"))

    _run_staged_build(kill_corpus, idx_killed)  # resume in a fresh process

    assert not os.path.exists(os.path.join(idx_killed, "_staging"))
    for seg in sorted(os.listdir(os.path.join(idx_clean, "segments"))):
        for f in ("terms.parquet", "blocks.parquet", "docs.bin", "postings.bin"):
            a = open(os.path.join(idx_clean, "segments", seg, f), "rb").read()
            b = open(os.path.join(idx_killed, "segments", seg, f), "rb").read()
            assert a == b, f"{seg}/{f} differs after staged kill+resume"
    sa, sb = read_stats(idx_clean), read_stats(idx_killed)
    for key in ("n_docs", "total_len", "avgdl", "n_postings"):
        assert sa[key] == sb[key]
