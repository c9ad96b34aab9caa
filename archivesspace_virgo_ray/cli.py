"""CLI entry points — the ``ray job submit`` surface.

On a real cluster these commands are the job payloads::

    ray job submit -- python -m archivesspace_virgo_ray.cli build \
        --corpus s3://bucket/corpus --index s3://bucket/idx --shards 256

Locally they own the Ray session (the ONLY places besides the test fixture
that call ray.init)."""

from __future__ import annotations

import argparse
import json
import sys


_OWNS_SESSION = False


def _init_ray(num_cpus: int | None):
    global _OWNS_SESSION
    import ray

    if not ray.is_initialized():
        kwargs = dict(
            address="local", include_dashboard=False, ignore_reinit_error=True,
            logging_level="ERROR",
        )
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
        _OWNS_SESSION = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def _shutdown_ray() -> None:
    """Tear down Ray ONLY if this CLI initialised it. Embedding callers
    (tests, notebooks, a driver that already ran ray.init) keep their
    session — shutting it down under them leaves cached actor handles
    pointing at a dead cluster, which segfaults in _raylet on next use."""
    global _OWNS_SESSION
    if _OWNS_SESSION:
        import ray

        ray.shutdown()
        _OWNS_SESSION = False


def cmd_build(args) -> int:
    ray = _init_ray(args.num_cpus)
    from .index.build import BuildConfig, build_index

    cfg = BuildConfig(
        n_shards=args.shards,
        n_buckets=args.buckets,
        text_col=args.text_col,
        id_col=args.id_col,
        meta_cols=tuple(args.meta_cols.split(",")) if args.meta_cols else (),
        batch_size=args.batch_size,
        analyzer=args.analyzer,
    )
    stats = build_index(args.corpus, args.index, cfg, resume=not args.no_resume)
    print(json.dumps(stats))
    _shutdown_ray()
    return 0


def cmd_ingest(args) -> int:
    """ArchivesSpace REST dump -> flagship doc builder -> long doc table
    (doc_id, field, pos, value) + the M17 error side-channel, both as
    partitioned parquet under --out."""
    import os

    ray = _init_ray(args.num_cpus)
    from .pipelines.docbuilder import build_solr_docs
    from .sources.aspace_dump import load_aspace_dump

    records, dims = load_aspace_dump(args.dump)
    docs, errors = build_solr_docs(records, dims, now_year=args.now_year)
    docs_dir = os.path.join(args.out, "docs")
    err_dir = os.path.join(args.out, "errors")
    docs.write_parquet(docs_dir)
    err_df = errors.to_pandas()  # error channel is small by design
    n_err = len(err_df)
    if n_err:
        import pyarrow as pa
        import pyarrow.parquet as pq

        os.makedirs(err_dir, exist_ok=True)
        pq.write_table(pa.Table.from_pandas(err_df, preserve_index=False),
                       os.path.join(err_dir, "errors.parquet"))
    import pyarrow.dataset as pads

    n_rows = pads.dataset(docs_dir).count_rows()
    print(json.dumps({
        "docs_dir": docs_dir,
        "n_field_rows": int(n_rows),
        "n_errors": int(n_err),
        "n_repositories": len(dims.repositories),
        "n_dims": {
            "subjects": len(dims.subjects), "agents": len(dims.agents),
            "containers": len(dims.containers),
            "digital_objects": len(dims.digital_objects),
            "archival_objects": len(dims.archival_objects),
        },
    }))
    _shutdown_ray()
    return 0


def cmd_query(args) -> int:
    ray = _init_ray(args.num_cpus)
    from .index.query import LocalSearcher

    s = LocalSearcher(args.index)
    for text in args.query:
        hits = s.search(text, args.k)
        print(json.dumps({"query": text,
                          "hits": [{"doc_id": d, "score": sc} for d, sc in hits]}))
    _shutdown_ray()
    return 0


def cmd_add(args) -> int:
    ray = _init_ray(args.num_cpus)
    from .index.build import BuildConfig
    from .index.update import add_documents

    cfg = BuildConfig(
        n_shards=args.shards, n_buckets=args.buckets, text_col=args.text_col,
        id_col=args.id_col,
        meta_cols=tuple(args.meta_cols.split(",")) if args.meta_cols else (),
        batch_size=args.batch_size,
        analyzer=args.analyzer,
    )
    print(json.dumps(add_documents(args.corpus, args.index, cfg)))
    _shutdown_ray()
    return 0


def cmd_merge(args) -> int:
    ray = _init_ray(args.num_cpus)
    from .index.update import merge_segments

    report = merge_segments(args.index, concurrency=args.concurrency)
    print(json.dumps({"merged": int(report["merged"].sum()) if len(report) else 0}))
    _shutdown_ray()
    return 0


def cmd_tiered_merge(args) -> int:
    ray = _init_ray(args.num_cpus)
    from .index.update import tiered_merge

    report = tiered_merge(args.index, merge_factor=args.merge_factor,
                          concurrency=args.concurrency)
    print(json.dumps(report))
    _shutdown_ray()
    return 0


def cmd_maintain(args) -> int:
    """One policy pass: tiered folds + dead-ratio-gated full merge +
    vacuum — the per-index cron job."""
    ray = _init_ray(args.num_cpus)
    from .index.update import maintain

    report = maintain(args.index, merge_factor=args.merge_factor,
                      dead_ratio=args.dead_ratio,
                      vacuum=not args.no_vacuum,
                      concurrency=args.concurrency)
    print(json.dumps(report))
    _shutdown_ray()
    return 0


def cmd_watch(args) -> int:
    """Continuous ingestion: mtime-watermark scan -> one replace-by-id
    delta per round (the reference's incremental reindex loop)."""
    import time as _time

    ray = _init_ray(args.num_cpus)
    from .index.build import BuildConfig
    from .index.ingest import ingest_once

    cfg = BuildConfig(
        n_shards=args.shards, n_buckets=args.buckets,
        text_col=args.text_col, id_col=args.id_col,
        meta_cols=tuple(args.meta_cols.split(",")) if args.meta_cols else (),
        batch_size=args.batch_size, analyzer=args.analyzer,
    )
    while True:
        rep = ingest_once(args.corpus, args.index, cfg,
                          maintain_after=args.maintain)
        print(json.dumps(rep), flush=True)
        if args.interval <= 0:
            break
        _time.sleep(args.interval)
    _shutdown_ray()
    return 0


def cmd_vacuum(args) -> int:
    ray = _init_ray(args.num_cpus)
    from .index.update import vacuum_docs

    print(json.dumps(vacuum_docs(args.index)))
    _shutdown_ray()
    return 0


def cmd_delete(args) -> int:
    """deleteByQuery: tombstone every doc matching the boolean query."""
    ray = _init_ray(args.num_cpus)
    from .index.update import delete_by_query

    n = delete_by_query(args.index, args.query, mode=args.mode)
    print(json.dumps({"deleted": int(n), "index": args.index}))
    _shutdown_ray()
    return 0


def cmd_snapshot(args) -> int:
    """Consistent index snapshot (marker-last; resumable per segment)."""
    ray = _init_ray(args.num_cpus)
    from .index.snapshot import snapshot_index

    r = snapshot_index(args.index, args.out)
    print(json.dumps({**r, "out": args.out}))
    _shutdown_ray()
    return 0


def cmd_restore(args) -> int:
    """Restore a snapshot into a fresh index directory."""
    from .index.snapshot import restore_index

    r = restore_index(args.snapshot, args.out)
    print(json.dumps({**r, "out": args.out}))
    return 0


def cmd_qsearch(args) -> int:
    """Query-string search: +must -not "phrase"(~slop) prefix* should."""
    ray = _init_ray(args.num_cpus)
    import pyarrow as pa

    from .index.qparser import querystring_topk

    q = pa.table({
        "query_id": pa.array(range(len(args.query)), "int64"),
        "text": pa.array(list(args.query), "string"),
        "k": pa.array([args.k] * len(args.query), "int32"),
    })
    out = querystring_topk(args.index, q).to_pandas()
    for qid, text in enumerate(args.query):
        g = out[out["query_id"] == qid]
        print(json.dumps({
            "query": text,
            "hits": [{"doc_id": int(r.doc_id), "score": float(r.score)}
                     for r in g.itertuples()]}))
    _shutdown_ray()
    return 0


def cmd_fsck(args) -> int:
    """Index integrity audit — metadata/size cross-checks only, no posting
    decode; exit code 1 when issues are found. ``--repair`` heals the safe
    findings (stray tmp dirs, leftover dirs and term-stats versions, drifted
    marker stats) and re-audits."""
    from .index.fsck import fsck_index, repair_index

    r = repair_index(args.index) if args.repair else fsck_index(args.index)
    print(json.dumps(r))
    return 0 if r["ok"] else 1


def cmd_fedquery(args) -> int:
    """Federated BM25 over several member indexes with GLOBAL statistics —
    results bit-identical to one combined index (index/federated.py)."""
    ray = _init_ray(args.num_cpus)
    import pyarrow as pa

    from .index.federated import FederatedSearcher

    fed = FederatedSearcher(args.indexes.split(","))
    q = pa.table({
        "query_id": pa.array(range(len(args.query)), "int64"),
        "text": pa.array(list(args.query), "string"),
        "k": pa.array([args.k] * len(args.query), "int32"),
    })
    out = fed.topk(q).to_pandas()
    for qid, text in enumerate(args.query):
        g = out[out["query_id"] == qid]
        print(json.dumps({
            "query": text,
            "hits": [{"doc_id": int(r.doc_id), "score": float(r.score)}
                     for r in g.itertuples()]}))
    _shutdown_ray()
    return 0


def cmd_reshard(args) -> int:
    """Rewrite an index into a new (n_shards, n_buckets) layout from its
    segments alone — the corpus is never re-read or re-tokenized, and the
    result is byte-identical to a fresh build at the target layout."""
    ray = _init_ray(args.num_cpus)
    from .index.reshard import reshard_index

    stats = reshard_index(args.index, args.out, args.shards, args.buckets)
    print(json.dumps(stats))
    _shutdown_ray()
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="archivesspace_virgo_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--corpus", required=True)
        sp.add_argument("--index", required=True)
        sp.add_argument("--shards", type=int, default=8)
        sp.add_argument("--buckets", type=int, default=8)
        sp.add_argument("--text-col", default="content")
        sp.add_argument("--id-col", default=None)
        sp.add_argument("--meta-cols", default="repo,path,commit,lang")
        sp.add_argument("--batch-size", type=int, default=2000)
        sp.add_argument("--analyzer", default="plain",
                        help="text analysis chain: plain | ident "
                             "(identifier camelCase/snake_case splitting)")

    b = sub.add_parser("build", help="build (or resume) the inverted index")
    common(b)
    b.add_argument("--no-resume", action="store_true")
    b.set_defaults(fn=cmd_build)

    ing = sub.add_parser(
        "ingest", help="ArchivesSpace REST dump -> Solr-doc long table")
    ing.add_argument("--dump", required=True,
                     help="dir of per-object *.json files, or one .jsonl")
    ing.add_argument("--out", required=True)
    ing.add_argument("--now-year", type=int, default=2026)
    ing.set_defaults(fn=cmd_ingest)

    a = sub.add_parser("add", help="append documents as a delta generation")
    common(a)
    a.set_defaults(fn=cmd_add)

    q = sub.add_parser("query", help="BM25 top-k query")
    q.add_argument("--index", required=True)
    q.add_argument("-k", type=int, default=10)
    q.add_argument("query", nargs="+")
    q.set_defaults(fn=cmd_query)

    m = sub.add_parser("merge", help="merge delta generations into bases")
    m.add_argument("--index", required=True)
    m.add_argument("--concurrency", type=int, default=4)
    m.set_defaults(fn=cmd_merge)

    tm = sub.add_parser(
        "tiered-merge",
        help="fold delta generations LSM-style (base never rewritten)")
    tm.add_argument("--index", required=True)
    tm.add_argument("--merge-factor", type=int, default=4)
    tm.add_argument("--concurrency", type=int, default=4)
    tm.set_defaults(fn=cmd_tiered_merge)

    mt = sub.add_parser(
        "maintain",
        help="policy pass: tiered folds + garbage-gated merge + vacuum")
    mt.add_argument("--index", required=True)
    mt.add_argument("--merge-factor", type=int, default=4)
    mt.add_argument("--dead-ratio", type=float, default=0.10)
    mt.add_argument("--no-vacuum", action="store_true")
    mt.add_argument("--concurrency", type=int, default=4)
    mt.set_defaults(fn=cmd_maintain)

    vc = sub.add_parser(
        "vacuum",
        help="compact _docs + clear applied tombstones (after a full merge)")
    vc.add_argument("--index", required=True)
    vc.set_defaults(fn=cmd_vacuum)

    w = sub.add_parser(
        "watch",
        help="continuous ingestion: new-or-changed file scan -> replace-by-id "
             "delta per round; --interval 0 runs once")
    w.add_argument("--corpus", required=True)
    w.add_argument("--index", required=True)
    w.add_argument("--interval", type=float, default=0.0)
    w.add_argument("--maintain", action="store_true")
    w.add_argument("--shards", type=int, default=None)
    w.add_argument("--buckets", type=int, default=None)
    w.add_argument("--text-col", default="content")
    w.add_argument("--id-col", default=None)
    w.add_argument("--meta-cols", default="")
    w.add_argument("--batch-size", type=int, default=2000)
    w.add_argument("--analyzer", default="plain")
    w.set_defaults(fn=cmd_watch)

    dq = sub.add_parser("delete", help="deleteByQuery: tombstone matching docs")
    dq.add_argument("--index", required=True)
    dq.add_argument("--mode", choices=["and", "or"], default="and")
    dq.add_argument("query")
    dq.set_defaults(fn=cmd_delete)

    sn = sub.add_parser("snapshot", help="consistent index snapshot (marker-last)")
    sn.add_argument("--index", required=True)
    sn.add_argument("--out", required=True)
    sn.set_defaults(fn=cmd_snapshot)

    rs = sub.add_parser("restore", help="restore a snapshot to a fresh dir")
    rs.add_argument("--snapshot", required=True)
    rs.add_argument("--out", required=True)
    rs.set_defaults(fn=cmd_restore)

    qs = sub.add_parser(
        "qsearch",
        help='query-string search: +must -not "phrase"(~slop) prefix* should')
    qs.add_argument("--index", required=True)
    qs.add_argument("-k", type=int, default=10)
    qs.add_argument("query", nargs="+")
    qs.set_defaults(fn=cmd_qsearch)

    fk = sub.add_parser(
        "fsck", help="index integrity audit (metadata cross-checks, "
                     "exit 1 on issues)")
    fk.add_argument("--index", required=True)
    fk.add_argument("--repair", action="store_true")
    fk.set_defaults(fn=cmd_fsck)

    fq = sub.add_parser(
        "fedquery",
        help="federated BM25 over comma-separated member indexes "
             "(global stats, bit-identical to one combined index)")
    fq.add_argument("--indexes", required=True)
    fq.add_argument("-k", type=int, default=10)
    fq.add_argument("query", nargs="+")
    fq.set_defaults(fn=cmd_fedquery)

    rh = sub.add_parser(
        "reshard",
        help="rewrite an index into a new shard/bucket layout (no re-tokenize)")
    rh.add_argument("--index", required=True)
    rh.add_argument("--out", required=True)
    rh.add_argument("--shards", type=int, required=True)
    rh.add_argument("--buckets", type=int, required=True)
    rh.set_defaults(fn=cmd_reshard)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
