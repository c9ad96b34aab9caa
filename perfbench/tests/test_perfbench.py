"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

The tiny runs start Ray and take about a minute each.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import gen, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    sizes = gen.Sizes(n_docs=200)
    a = gen.cached_corpus(str(tmp_path / "a"), sizes, 7)
    b = gen.cached_corpus(str(tmp_path / "b"), sizes, 7)
    c = gen.cached_corpus(str(tmp_path / "c"), sizes, 8)
    assert _files(a) == _files(b)
    assert _files(a)["part-00000.parquet"] != _files(c)["part-00000.parquet"]
    m1, m2 = gen.query_mix(sizes, 7), gen.query_mix(sizes, 7)
    assert m1.texts == m2.texts and m1.ks == m2.ks
    assert (m1.stream == m2.stream).all()
    assert all(x.equals(y) for x, y in zip(m1.batches, m2.batches))
    base = gen.corpus_table(sizes, 7)
    d1, d2 = gen.delta_stream(sizes, 7, base), gen.delta_stream(sizes, 7, base)
    assert [d.table.equals(e.table) for d, e in zip(d1, d2)] == [True] * sizes.n_deltas
    assert gen.query_mix(sizes, 8).texts != m1.texts


def test_cache_key_covers_every_parameter():
    base = gen.Sizes()
    keys = {base.key(1), base.key(2)}
    for field in base.__dataclass_fields__:
        v = getattr(base, field)
        keys.add(gen.Sizes(**{field: v * 2 if v else 1}).key(1))
    assert len(keys) == 2 + len(base.__dataclass_fields__)


def test_delta_stream_passes_maintain_dead_ratio():
    for n_docs in (300, workloads.DOCS["ingest"]):
        s = gen.Sizes(n_docs=n_docs)
        new, rep, dele = s.per_delta()
        garbage = s.n_deltas * (rep + dele)
        live = n_docs + s.n_deltas * (new - dele)
        assert garbage / (live + garbage) >= 0.12


def test_metric_names_are_legal_and_match_the_code():
    b = _bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    names += [w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in b["end_to_end"])
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == workloads.E2E
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == workloads.LAYER
    assert [w["name"] for w in b["workloads"]] == list(workloads.RUNNERS)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = _run(str(tmp_path), "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.RUNNERS))
def test_tiny_run_prints_every_metric(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--docs", "300")
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert report["failed_frac"] == 0
    want = workloads.LAYER if trace else workloads.E2E
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
