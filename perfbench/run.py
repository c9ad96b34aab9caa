"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {search,ingest} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere: the engine package is found next to this directory
(the checkout root). All files the run writes stay under ``<root>/.pb``:
the corpus and oracle caches (``.pb/cache``), the run's scratch indexes
(removed at exit), Ray's session directory and, for a traced run, the spans
(``.pb/traces``).

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``
with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``). The line before it is a fuller report for people: every
value with its unit and sample count, and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "archivesspace_virgo_ray"
# Ray's Unix socket paths live under its temp dir and must stay < 108 bytes
_MAX_RAY_TMP = 44


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("search", "ingest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--docs", type=int, default=None,
                   help="corpus size (default: the workload's standard size)")
    return p.parse_args(argv)


def nproc() -> int:
    """CPUs this process may use, as coreutils ``nproc`` counts them: the
    affinity mask, overridden by OMP_NUM_THREADS, capped by OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    for var, cap in (("OMP_NUM_THREADS", False), ("OMP_THREAD_LIMIT", True)):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v)) if cap else int(v)
    return n


def start_ray(tmp: str, nproc: int) -> None:
    import ray

    # workers import the engine from the checkout root, whatever the cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    kwargs = {}
    if len(tmp) <= _MAX_RAY_TMP:
        kwargs["_temp_dir"] = tmp
    else:
        print("perfbench: checkout path too long for Ray sockets; Ray uses its "
              "default temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=nproc, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, **kwargs)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    import ray

    from archivesspace_virgo_ray.index.query import shutdown_pools

    if ray.is_initialized():
        shutdown_pools()
        ray.shutdown()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE} package under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import gen, workloads

    ncpu = nproc()
    pb = os.path.join(ROOT, ".pb")
    cache = os.path.join(pb, "cache")
    work = os.path.join(pb, f"run-{os.getpid()}")
    ray_tmp = os.path.join(pb, f"r{os.getpid()}")
    os.makedirs(cache, exist_ok=True)
    os.makedirs(work)
    sizes = gen.Sizes(n_docs=args.docs or workloads.DOCS[args.workload])
    r = workloads.Run(work, cache, sizes, args.seed, args.seconds,
                      bool(args.trace), ncpu)
    t0 = time.perf_counter()
    try:
        start_ray(ray_tmp, ncpu)
        workloads.run(args.workload, r)
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    if args.trace:
        traces = os.path.join(pb, "traces")
        os.makedirs(traces, exist_ok=True)
        r.tracer.write(os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl"))

    names = workloads.LAYER if args.trace else workloads.E2E
    units = {**workloads.E2E, **workloads.REPORT, **workloads.LAYER}
    metrics = {n: {"value": r.values.get(n, 0.0), "unit": u} for n, u in names.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "n_docs": sizes.n_docs, "nproc": ncpu,
        "wall_s": round(time.perf_counter() - t0, 3),
        "failed_frac": r.failed / max(1, r.attempted),
        "values": {n: {"value": v, "unit": units[n], "n": r.counts.get(n, 1)}
                   for n, v in sorted(r.values.items())},
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": r.failed == 0, "attempted": max(1, r.attempted),
                      "failed": r.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
