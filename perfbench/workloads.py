"""The benchmark's workloads over the index engine.

Both build their index in set-up from the seeded corpus and send single
queries through ``bm25_topk`` in a closed loop (one client thread),
interleaved with batch tables:

- ``search``: the query stream alone, against the set-up index;
- ``ingest``: a stream of delta generations (adds with replacements, then
  deletes, each followed by its probes), the queries and batches between
  them, then one ``maintain()`` pass that reaches the full merge.

Only the layers' public entry points are called, and they are timed from
outside. See README.md for every metric and the layer map.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import time

import numpy as np

from . import checks, gen
from .tracing import Tracer

# end-to-end metrics: every workload reports every one of them
E2E = {
    "setup_s": "s",
    "index_bytes_per_input_byte": "B/B",
    "batch_qps": "1/s",
}
# end-to-end values in the report line only; README.md says why each is
# not bounded (for latency: its run-to-run spread exceeds any legal bound)
REPORT = {
    "build_docs_per_s": "docs/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_p95_ms": "ms",
    "query_p99_ms": "ms",
}
# per-layer metrics of the traced run; a layer a workload does not drive
# reports 0
LAYER = {
    "tokenize.docs_per_s": "docs/s",
    "tokenize.tokens": "count",
    "build.read_s": "s",
    "build.total_s": "s",
    "build.docs_per_s": "docs/s",
    "build.shuffle_write_seal_s": "s",
    "build.n_postings": "count",
    "build.n_segments": "count",
    "build.index_bytes": "B",
    "postings.bytes_per_posting": "B",
    "postings.decode_mb_per_s": "MB/s",
    "query.plan_ms": "ms",
    "query.score_ms": "ms",
    "query.scatter_ms": "ms",
    "query.pool_open_s": "s",
    "query.cache_hit_ratio": "ratio",
    "query.cache_lookups": "count",
    "query.p99_ms": "ms",
    "update.add_s": "s",
    "update.refresh_s": "s",
    "update.delete_s": "s",
    "update.add_visible_s": "s",
    "update.live_generations": "count",
    "update.maintain_s": "s",
    "update.tiered_s": "s",
    "update.merge_s": "s",
    "update.vacuum_s": "s",
    "update.bytes_rewritten": "B",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
    "trace.query_p50_ms": "ms",
}
# corpus size per workload: ingest's maintain pass rewrites the whole index,
# so its base is smaller to keep a run inside its time budget
DOCS = {"search": 1000, "ingest": 500}

SHARDS, BUCKETS = 2, 2
N_SETUPS = 3            # set-ups per run; setup_s is their median
CHECK_SAMPLE = 64       # distinct served queries checked against the oracle
BATCH_CHECK_ROWS = 16   # rows of each batch table checked against the oracle
CHECK_BATCHES = 2       # ingest: batch tables re-run on the merged index
DECOMPOSE_QUERIES = 100  # traced run: queries split into plan/score/scatter
PROBES_PER_KIND = 3     # ingest: deleted / replaced docs probed per delta
# single queries per second of --seconds: the streams are fixed-size, so a
# faster engine meets the same mix (same cache warm-up, same reads per
# write) instead of a longer stream; on a 1-CPU box a stream lasts about
# --seconds (search) or less (ingest, whose maintain pass is long)
SEARCH_QPS = 80
INGEST_QPS = 60


def _cfg():
    from archivesspace_virgo_ray.index.build import BuildConfig

    return BuildConfig(n_shards=SHARDS, n_buckets=BUCKETS)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _file_stamps(path: str) -> dict[str, tuple[int, int]]:
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            p = os.path.join(d, f)
            st = os.stat(p)
            out[p] = (st.st_size, st.st_mtime_ns)
    return out


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


class Run:
    """State of one benchmark run: inputs, counters and measured values."""

    def __init__(self, work: str, cache: str, sizes: gen.Sizes, seed: int,
                 seconds: float, traced: bool, nproc: int):
        self.work, self.cache, self.sizes, self.seed = work, cache, sizes, seed
        self.seconds, self.nproc = seconds, nproc
        self.tracer = Tracer(traced)
        self.attempted = 0
        self.failed = 0
        self.values: dict[str, float] = {}
        self.counts: dict[str, int] = {}      # sample count behind a value
        self.latencies_ms: list[float] = []
        self.served: dict[tuple[str, int], list] = {}  # first answer per query
        self.cache_hits = 0
        self.cache_lookups = 0
        self.batch_qps: list[float] = []
        self.mix = gen.query_mix(sizes, seed)
        self._qpos = 0
        self._n_dirs = 0

    # -- bookkeeping ---------------------------------------------------------

    def fail(self, what: str, detail="") -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what} {detail}"[:400], file=sys.stderr)

    def new_dir(self, stem: str) -> str:
        self._n_dirs += 1
        return os.path.join(self.work, f"{stem}-{self._n_dirs}")

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.values[name] = float(value)
        self.counts[name] = int(n)

    # -- inputs --------------------------------------------------------------

    def corpus(self) -> str:
        return gen.cached_corpus(self.cache, self.sizes, self.seed)

    def load_base(self, corpus: str) -> None:
        """Base rows and their engine doc ids, for checks and probes."""
        import pyarrow.parquet as pq

        from archivesspace_virgo_ray.functions.hashing import doc_id_from_key

        self.base = pq.read_table(corpus)
        self.base_ids = np.asarray(doc_id_from_key(
            self.base["repo"].to_pylist(), self.base["path"].to_pylist(),
            self.base["commit"].to_pylist()), dtype=np.int64)
        self.input_bytes = gen.parquet_bytes(corpus)

    def expected(self, name: str, ids, contents) -> checks.Expected:
        return checks.Expected(
            os.path.join(self.cache, f"oracle-{self.sizes.key(self.seed)}-{name}.json"),
            ids, contents)

    # -- layer calls ---------------------------------------------------------

    def build(self, corpus: str) -> tuple[str, float]:
        """One fresh build_index into a new directory -> (index dir, seconds)."""
        from archivesspace_virgo_ray.index.build import build_index

        idx = self.new_dir("idx")
        t0 = time.perf_counter()
        with self.tracer.span("build.build_index", self.tracer.new_op()):
            stats = build_index(corpus, idx, _cfg(), resume=False)
        dt = time.perf_counter() - t0
        self.attempted += 1
        if stats["n_docs"] != self.sizes.n_docs:
            self.fail("build", f"n_docs {stats['n_docs']} != {self.sizes.n_docs}")
        return idx, dt

    def open_pool(self, idx: str) -> None:
        """Cold get_pool: every cached pool is shut down first."""
        from archivesspace_virgo_ray.index.query import get_pool, shutdown_pools

        shutdown_pools()
        with self.tracer.span("query.get_pool", self.tracer.new_op()):
            get_pool(idx)

    def run_batch(self, idx: str, tbl, span: str = "query.batch", op: int = 0):
        """One query table through bm25_topk -> (result or None, seconds)."""
        from archivesspace_virgo_ray.index.query import bm25_topk

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span, op or self.tracer.new_op()):
                res = bm25_topk(idx, tbl)
        except Exception as e:  # noqa: BLE001 - counted, the run goes on
            self.fail(span, repr(e))
            return None, time.perf_counter() - t0
        return res, time.perf_counter() - t0

    def query(self, idx: str, text: str, k: int, span: str = "query.bm25_topk",
              op: int = 0, query_id: int = 0):
        """One single query through bm25_topk -> (result or None, seconds)."""
        return self.run_batch(idx, checks.single_query(text, k, query_id), span, op)

    def note_cache(self, idx: str) -> None:
        """Fold the pool's result-cache counters into the run's totals. Call
        before anything that refreshes the pool (which resets them)."""
        from archivesspace_virgo_ray.index.query import get_pool

        pool = get_pool(idx)
        self.cache_hits += pool.cache_hits
        self.cache_lookups += pool.cache_hits + pool.cache_misses

    # -- phases --------------------------------------------------------------

    def setups(self, unit) -> None:
        """Run the workload's set-up ``N_SETUPS`` times; setup_s = median."""
        times = []
        for _ in range(N_SETUPS):
            t0 = time.perf_counter()
            with self.tracer.span("setup", self.tracer.new_op()):
                unit()
            times.append(time.perf_counter() - t0)
        self.put("setup_s", _median(times), len(times))

    def index_setup(self, corpus: str):
        """Set-up unit of the workloads: a fresh build and a cold pool. Keeps
        only the newest index. One untimed Ray Data pass over the corpus
        comes first, so every set-up finds the worker pool up."""
        import ray

        ray.data.read_parquet(corpus).map_batches(
            lambda t: t, batch_format="pyarrow").materialize()
        state: dict = {}

        def unit():
            idx, build_s = self.build(corpus)
            self.open_pool(idx)
            if "idx" in state:
                shutil.rmtree(state["idx"], ignore_errors=True)
            state["idx"] = idx
            state.setdefault("builds", []).append(build_s)
            state["index_bytes"] = dir_bytes(idx)

        self.setups(unit)
        return state

    def warm_up(self, idx: str) -> None:
        """One untimed batch over a full kind/k cycle of the pool, so lazy
        loads (term-stats buckets, segment readers) finish before timing."""
        import pyarrow as pa

        from archivesspace_virgo_ray.index.query import bm25_topk

        n = gen.SLOT_CYCLE
        self.attempted += 1
        with self.tracer.span("query.warm_up", self.tracer.new_op()):
            bm25_topk(idx, pa.table({
                "query_id": pa.array(np.arange(n), pa.int64()),
                "text": pa.array(self.mix.texts[:n], pa.string()),
                "k": pa.array(self.mix.ks[:n], pa.int32())}))

    def put_build(self, build_times: list[float], index_bytes: int) -> None:
        self.put("build_docs_per_s", self.sizes.n_docs / _median(build_times),
                 len(build_times))
        self.put("index_bytes_per_input_byte", index_bytes / self.input_bytes)
        self.put("build.total_s", _median(build_times), len(build_times))
        self.put("build.docs_per_s", self.values["build_docs_per_s"], len(build_times))
        self.put("build.index_bytes", index_bytes)

    def query_loop(self, idx: str, count: int) -> None:
        """Closed loop of ``count`` single queries (query_id 0, as an
        interactive client sends them), Zipfian over the pool."""
        mix = self.mix
        for _ in range(count):
            j = int(mix.stream[self._qpos % len(mix.stream)])
            self._qpos += 1
            text, k = mix.texts[j], mix.ks[j]
            res, dt = self.query(idx, text, k)
            if res is not None:
                self.latencies_ms.append(dt * 1e3)
                if (text, k) not in self.served:
                    self.served[(text, k)] = checks.answers_by_qid(res).get(0, [])

    def batch(self, idx: str, tbl):
        """A timed batch: its rows/s is one batch_qps sample."""
        res, dt = self.run_batch(idx, tbl)
        if res is not None:
            self.batch_qps.append(tbl.num_rows / dt)
        return res

    def check_batch(self, tbl, res, expected: checks.Expected) -> None:
        """A seeded sample of one batch table's rows must match the oracle."""
        if res is None:
            return
        got = checks.answers_by_qid(res)
        rows = np.random.default_rng(self.seed).choice(
            tbl.num_rows, size=min(BATCH_CHECK_ROWS, tbl.num_rows), replace=False)
        texts, ks = tbl["text"].to_pylist(), tbl["k"].to_pylist()
        bad = [int(r) for r in rows
               if got.get(int(r), []) != expected.answer(texts[r], ks[r])]
        if bad:
            self.fail("batch answers", f"rows {bad[:5]}")

    def check_served(self, expected: checks.Expected) -> None:
        """A seeded sample of the distinct queries served in the loops must
        match the oracle exactly. A wrong answer counts as one failed op."""
        keys = sorted(self.served)
        rng = np.random.default_rng(self.seed)
        pick = rng.choice(len(keys), size=min(CHECK_SAMPLE, len(keys)), replace=False)
        for i in pick:
            text, k = keys[int(i)]
            if self.served[(text, k)] != expected.answer(text, k):
                self.fail("query answer", f"{text!r} k={k}")

    def put_queries(self) -> None:
        lat = np.asarray(self.latencies_ms)
        if len(lat) == 0:
            self.fail("query loop", "no query completed")
            lat = np.asarray([np.nan])
        for q in (50, 90, 95, 99):
            self.put(f"query_p{q}_ms", float(np.percentile(lat, q)), len(lat))
        self.put("query.p99_ms", self.values["query_p99_ms"], len(lat))
        self.put("trace.query_p50_ms", self.values["query_p50_ms"], len(lat))
        if self.cache_lookups:
            self.put("query.cache_hit_ratio", self.cache_hits / self.cache_lookups,
                     self.cache_lookups)
        self.put("query.cache_lookups", self.cache_lookups)
        self.put("batch_qps", _median(self.batch_qps), len(self.batch_qps))

    # -- traced-run layer measurements --------------------------------------

    def layer_build(self, corpus: str, idx: str) -> None:
        """Read and tokenize cost of the build, each measured on its own;
        the rest of build_index is the shuffle/write/seal residual."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray

        from archivesspace_virgo_ray.index.build import make_triples_fn
        from archivesspace_virgo_ray.index.segments import read_stats

        cfg = _cfg()
        cols = list(cfg.key_cols) + [c for c in cfg.meta_cols if c not in cfg.key_cols]
        cols.append(cfg.text_col)
        with self.tracer.span("build.read", self.tracer.new_op()):
            ray.data.read_parquet(corpus, columns=cols).materialize()
        fn = make_triples_fn(cfg, frozenset())
        tokens = 0
        with self.tracer.span("tokenize.triples", self.tracer.new_op()):
            for f in sorted(os.listdir(corpus)):
                if not f.endswith(".parquet"):
                    continue
                for b in pq.ParquetFile(os.path.join(corpus, f)).iter_batches(
                        batch_size=cfg.batch_size, columns=cols):
                    tokens += int(np.asarray(fn(pa.Table.from_batches([b]))["tf"]).sum())
        read_s = _median(self.tracer.durations("build.read"))
        tok_s = _median(self.tracer.durations("tokenize.triples"))
        self.put("build.read_s", read_s)
        self.put("tokenize.docs_per_s", self.sizes.n_docs / tok_s)
        self.put("tokenize.tokens", tokens)
        self.put("build.shuffle_write_seal_s",
                 self.values["build.total_s"] - read_s - tok_s)
        stats = read_stats(idx)
        seg_root = os.path.join(idx, "segments")
        seg_bytes = dir_bytes(seg_root)
        self.put("build.n_postings", stats["n_postings"])
        self.put("build.n_segments", len(os.listdir(seg_root)))
        self.put("postings.bytes_per_posting", seg_bytes / stats["n_postings"])

    def layer_postings(self, idx: str) -> None:
        """decode_posting_list over every head-term list of the index."""
        from archivesspace_virgo_ray.index.postings import decode_posting_list
        from archivesspace_virgo_ray.index.update import (
            list_segment_generations,
            open_segment,
        )

        entries = []
        for names in list_segment_generations(idx).values():
            for name in names:
                seg = open_segment(idx, name)
                for term in gen.HEAD_TERMS:
                    e = seg.term_entry(term)
                    if e is not None:
                        entries.append((e["payload"], e["block_table"]))
        nbytes, reps = sum(len(p) for p, _ in entries), 0
        with self.tracer.span("postings.decode", self.tracer.new_op()):
            t0 = time.perf_counter()
            while reps < 3 or time.perf_counter() - t0 < 0.3:
                for payload, table in entries:
                    decode_posting_list(payload, table)
                reps += 1
            dt = time.perf_counter() - t0
        self.put("postings.decode_mb_per_s", nbytes * reps / dt / 1e6, reps)

    def layer_query(self, idx: str) -> None:
        """Split single-query latency: in-process plan and score of the same
        query, and the pool/RPC/merge remainder of bm25_topk (scatter).
        Distinct query ids keep these bm25_topk calls out of the cache."""
        from archivesspace_virgo_ray.functions.tokenize import tokenize_text
        from archivesspace_virgo_ray.index.query import LocalSearcher

        tr = self.tracer
        with tr.span("query.local_open", tr.new_op()):
            local = LocalSearcher(idx)
        rng = np.random.default_rng(self.seed + 1)
        pick = rng.choice(len(self.mix.texts), size=DECOMPOSE_QUERIES, replace=False)
        ops = []
        for n, j in enumerate(pick):
            text, k = self.mix.texts[int(j)], self.mix.ks[int(j)]
            op = tr.new_op()
            ops.append(op)
            self.query(idx, text, k, span="query.scatter_probe", op=op,
                       query_id=1_000_000 + n)
            with tr.span("query.plan", op):
                plans = local.store.plan_query(text)
            if plans:
                nq = len(set(tokenize_text(local.store.qtext(text))))
                with tr.span("query.score", op):
                    local.worker.score({0: (k, plans)}, n_terms_by_qid={0: nq})
        total, plan, score = (tr.by_op(s) for s in
                              ("query.scatter_probe", "query.plan", "query.score"))
        self.put("query.plan_ms", 1e3 * _median([plan.get(o, 0.0) for o in ops]), len(ops))
        self.put("query.score_ms", 1e3 * _median([score.get(o, 0.0) for o in ops]), len(ops))
        self.put("query.scatter_ms", 1e3 * _median(
            [total[o] - plan.get(o, 0.0) - score.get(o, 0.0) for o in ops if o in total]),
            len(ops))

    def layer_finish(self) -> None:
        pools = self.tracer.durations("query.get_pool")
        self.put("query.pool_open_s", _median(pools), len(pools))
        self.put("trace.span_cost_us", 1e6 * self.tracer.span_cost_s())
        self.put("trace.spans", len(self.tracer.spans))


# -- workloads ---------------------------------------------------------------


def run_search(r: Run) -> None:
    corpus = r.corpus()
    state = r.index_setup(corpus)
    idx = state["idx"]
    r.load_base(corpus)
    r.put_build(state["builds"], state["index_bytes"])
    r.warm_up(idx)
    expected = r.expected("base", r.base_ids, r.base["content"].to_pylist())
    # batches interleave with the single-query loop, one per slice of the
    # stream, so both sample the whole run rather than one moment of it
    per_slice = round(r.seconds * SEARCH_QPS / len(r.mix.batches))
    results = []
    for tbl in r.mix.batches:
        results.append((tbl, r.batch(idx, tbl)))
        r.query_loop(idx, per_slice)
    r.note_cache(idx)
    r.put_queries()
    for tbl, res in results:
        r.check_batch(tbl, res, expected)
    r.check_served(expected)
    expected.save()
    if r.tracer.enabled:
        r.layer_build(corpus, idx)
        r.layer_postings(idx)
        r.layer_query(idx)
        # the update layer, once, after everything the workload measures:
        # one delta and a maintain pass forced to merge (one delta leaves
        # less garbage than the default dead_ratio)
        stream = Stream(r, idx, corpus)
        stream.apply(stream.deltas[0])
        stream.finish()
        stream.maintain(dead_ratio=0.0)


@contextlib.contextmanager
def _traced_calls(tracer: Tracer, module, names: tuple[str, ...]):
    """Span every call to ``module.<name>`` made while the block runs (the
    maintain pass reaches its phases through these module-level names)."""
    if not tracer.enabled:
        yield
        return
    originals = {n: getattr(module, n) for n in names}

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tracer.span(f"update.{name}"):
                return fn(*args, **kwargs)
        return traced

    for n, fn in originals.items():
        setattr(module, n, wrap(n, fn))
    try:
        yield
    finally:
        for n, fn in originals.items():
            setattr(module, n, fn)


class Stream:
    """The delta stream of one run against one index: writes the delta
    files, applies deltas with their probes, runs maintain, and knows the
    live corpus the index should hold afterwards."""

    def __init__(self, r: Run, idx: str, corpus: str):
        import pyarrow.parquet as pq

        self.r, self.idx = r, idx
        self.dir = os.path.join(r.work, "deltas")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.deltas = gen.delta_stream(r.sizes, r.seed, pq.read_table(corpus))
        for d in self.deltas:
            pq.write_table(d.table, self.path(d))
        self.applied: list[gen.Delta] = []
        self.times: dict[str, list[float]] = {
            k: [] for k in ("add", "refresh", "delete", "visible")}

    def path(self, d: gen.Delta) -> str:
        return os.path.join(self.dir, f"g{d.gen}.parquet")

    def apply(self, d: gen.Delta) -> None:
        """add_documents (new docs + replacements), the visibility probe,
        delete_documents, then the delete/replace probes."""
        from archivesspace_virgo_ray.functions.hashing import doc_id_from_key
        from archivesspace_virgo_ray.index import update

        r, idx, tr = self.r, self.idx, self.r.tracer
        if not self.applied:
            self.id_of = dict(enumerate(r.base_ids.tolist()))
        t = d.table
        new_ids = doc_id_from_key(t["repo"].to_pylist(), t["path"].to_pylist(),
                                  t["commit"].to_pylist())[:len(d.new_rows)]
        id_of = self.id_of
        id_of.update(zip(d.new_rows, (int(x) for x in new_ids)))
        r.note_cache(idx)  # the add below refreshes the pool
        op = tr.new_op()
        r.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("update.add_documents", op):
                update.add_documents(self.path(d), idx, _cfg(), on_conflict="replace")
        except Exception as e:  # noqa: BLE001 - counted, the stream goes on
            r.fail("add_documents", repr(e))
            return
        self.applied.append(d)
        t1 = time.perf_counter()
        # visibility: the first query after the add must see the needle
        res, dt = r.query(idx, d.probe_needle, 10, span="update.refresh", op=op)
        if res is None or id_of[d.new_rows[0]] not in res["doc_id"].to_pylist():
            r.fail("visibility probe", d.probe_needle)
        self.times["add"].append(t1 - t0)
        self.times["refresh"].append(dt)
        self.times["visible"].append(time.perf_counter() - t0)
        r.note_cache(idx)  # as does the delete
        r.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("update.delete_documents", op):
                update.delete_documents(idx, [id_of[row] for row in d.deleted_rows])
        except Exception as e:  # noqa: BLE001
            r.fail("delete_documents", repr(e))
        self.times["delete"].append(time.perf_counter() - t0)
        for row in d.deleted_rows[:PROBES_PER_KIND]:
            res, _ = r.query(idx, gen.needle(row), 10, span="update.probe", op=op)
            if res is None or res.num_rows:
                r.fail("deleted doc still matches", gen.needle(row))
        for row in d.replaced_rows[:PROBES_PER_KIND]:
            res, _ = r.query(idx, gen.needle(row), 10, span="update.probe", op=op)
            if res is None or id_of[row] in res["doc_id"].to_pylist():
                r.fail("replaced doc matches its old term", gen.needle(row))
            res, _ = r.query(idx, gen.needle(row, d.gen), 10, span="update.probe", op=op)
            if res is None or res["doc_id"].to_pylist() != [id_of[row]]:
                r.fail("replaced doc misses its new term", gen.needle(row, d.gen))

    def finish(self) -> None:
        """Per-delta medians and the live generations the stream left."""
        from archivesspace_virgo_ray.index import update

        r, idx = self.r, self.idx
        for k, xs in self.times.items():
            name = "update.add_visible_s" if k == "visible" else f"update.{k}_s"
            r.put(name, _median(xs), len(xs))
        gens = update.list_segment_generations(idx)
        folded = update.folded_gens(idx)
        r.put("update.live_generations", sum(
            len(update.live_gens(idx, names, folded=folded)) for names in gens.values()))

    def maintain(self, **kwargs) -> None:
        """One maintain() pass, timed, with its phases spanned; its full
        merge must run."""
        from archivesspace_virgo_ray.index import update

        r, idx, tr = self.r, self.idx, self.r.tracer
        before = _file_stamps(idx)
        r.attempted += 1
        t0 = time.perf_counter()
        with _traced_calls(tr, update, ("tiered_merge", "merge_segments", "vacuum_docs")):
            with tr.span("update.maintain", tr.new_op()):
                report = update.maintain(idx, concurrency=r.nproc, **kwargs)
        r.put("update.maintain_s", time.perf_counter() - t0)
        after = _file_stamps(idx)
        r.put("update.bytes_rewritten",
              sum(size for p, (size, mt) in after.items() if before.get(p) != (size, mt)))
        for name, key in (("tiered_merge", "update.tiered_s"),
                          ("merge_segments", "update.merge_s"),
                          ("vacuum_docs", "update.vacuum_s")):
            r.put(key, float(tr.durations(f"update.{name}").sum()))
        if not report.get("merged_pairs"):
            r.fail("maintain", f"full merge did not run: {report}")

    def live_corpus(self) -> tuple[list[int], list[str]]:
        """(doc ids, contents) the index should hold: base rows minus the
        deleted ones, replacements swapped in, new docs added."""
        r = self.r
        live = dict(zip(r.base_ids.tolist(), r.base["content"].to_pylist()))
        for d in self.applied:
            contents = d.table["content"].to_pylist()
            for row, text in zip(d.new_rows + d.replaced_rows, contents):
                live[self.id_of[row]] = text
            for row in d.deleted_rows:
                live.pop(self.id_of[row], None)
        ids = sorted(live)
        return ids, [live[i] for i in ids]


def run_ingest(r: Run) -> None:
    corpus = r.corpus()
    stream = Stream(r, "", corpus)  # the delta files, written before set-up
    state = r.index_setup(corpus)
    idx = stream.idx = state["idx"]
    r.load_base(corpus)
    r.put_build(state["builds"], state["index_bytes"])
    if r.tracer.enabled:
        r.layer_build(corpus, idx)
        r.layer_postings(idx)
    r.warm_up(idx)
    # after each delta, its share of the batch tables and single queries:
    # batch throughput is measured under writes, like query latency
    per_batch = len(r.mix.batches) // len(stream.deltas)
    queries = round(r.seconds * INGEST_QPS / len(r.mix.batches))
    tables = iter(r.mix.batches)
    for d in stream.deltas:
        stream.apply(d)
        for _ in range(per_batch):
            r.batch(idx, next(tables))
            r.query_loop(idx, queries)
    r.note_cache(idx)
    r.put_queries()
    stream.finish()
    if r.tracer.enabled:
        r.layer_query(idx)  # read cost with every delta generation live
    stream.maintain()

    # answers in the stream read df counts that still include replaced and
    # deleted versions (exact only after the full merge), so the oracle
    # checks run on the merged index
    expected = r.expected("live", *stream.live_corpus())
    for tbl in r.mix.batches[:CHECK_BATCHES]:
        r.check_batch(tbl, r.run_batch(idx, tbl)[0], expected)
    r.served = {}
    r.query_loop(idx, CHECK_SAMPLE)
    r.check_served(expected)
    expected.save()


RUNNERS = {"search": run_search, "ingest": run_ingest}


def run(workload: str, r: Run) -> None:
    RUNNERS[workload](r)
    if r.tracer.enabled:
        r.layer_finish()
