"""The driver-side top-k merge (``index/query.py::_merge_topk_parts``)
against a plain-Python reference: per query, sort the partial rows by
(score desc, doc_id asc) and keep the first k. No Ray needed."""

import numpy as np
import pyarrow as pa
import pytest

from archivesspace_virgo_ray.index.query import QueryPlan, _merge_topk_parts

SCHEMA = pa.schema([("query_id", pa.int64()), ("rank", pa.int64()),
                    ("doc_id", pa.int64()), ("score", pa.float64())])


def _part(q, d, s) -> tuple:
    """One shard's partial, as ``ShardWorker.score`` returns it."""
    return (np.asarray(q, np.int64), np.asarray(d, np.int64),
            np.asarray(s, np.float64))


def _reference(live: dict, parts: list) -> list[tuple]:
    rows = [r for p in parts for r in zip(*(c.tolist() for c in p))]
    out = []
    for qid in sorted(live):
        k = live[qid][0]
        mine = sorted(((-s, d) for q, d, s in rows if q == qid))[:k]
        out += [(qid, r, d, -ns) for r, (ns, d) in enumerate(mine, 1)]
    return out


def _check(live: dict, parts: list) -> pa.Table:
    got = _merge_topk_parts(live, parts)
    assert got.schema.remove_metadata() == SCHEMA
    exp = _reference(live, parts)
    assert got["query_id"].to_pylist() == [r[0] for r in exp]
    assert got["rank"].to_pylist() == [r[1] for r in exp]
    assert got["doc_id"].to_pylist() == [r[2] for r in exp]
    assert np.array_equal(
        got["score"].to_numpy().view(np.int64),
        np.array([r[3] for r in exp], np.float64).view(np.int64))
    return got


def _random_case(rng, n_queries: int, n_parts: int, tie_levels: int):
    """Each doc lives in exactly one part (shard); scores drawn from a few
    levels so equal scores split across parts."""
    qids = rng.choice(10_000, size=n_queries, replace=False)
    levels = rng.random(tie_levels) * 20.0
    cols = [([], [], []) for _ in range(n_parts)]
    live = {}
    for qid in qids:
        n = int(rng.integers(0, 40))
        docs = rng.choice(1 << 40, size=n, replace=False)
        shard = rng.integers(0, n_parts, size=n)
        scores = levels[rng.integers(0, tie_levels, size=n)]
        for doc, sh, sc in zip(docs, shard, scores):
            cols[sh][0].append(int(qid))
            cols[sh][1].append(int(doc))
            cols[sh][2].append(float(sc))
        live[int(qid)] = (int(rng.integers(0, 50)), ["plan"])
    return live, [_part(*c) for c in cols]


@pytest.mark.parametrize("seed", range(8))
def test_merge_matches_reference_on_random_parts(seed):
    rng = np.random.default_rng(seed)
    live, parts = _random_case(rng, n_queries=int(rng.integers(1, 30)),
                               n_parts=int(rng.integers(1, 5)),
                               tie_levels=int(rng.integers(1, 6)))
    _check(live, parts)


def test_equal_scores_across_parts_break_on_doc_id():
    parts = [_part([7, 7], [30, 10], [1.5, 1.5]),
             _part([7, 7], [20, 5], [1.5, 2.0])]
    got = _check({7: (3, ["p"])}, parts)
    assert got["doc_id"].to_pylist() == [5, 10, 20]


def test_k_larger_than_rows_and_k_zero():
    parts = [_part([1, 1, 2, 2], [4, 3, 9, 8], [0.5, 0.7, 0.1, 0.2])]
    got = _check({1: (100, ["p"]), 2: (0, ["p"])}, parts)
    assert got["query_id"].to_pylist() == [1, 1]
    assert got["rank"].to_pylist() == [1, 2]


def test_live_query_without_rows_and_rows_outside_live():
    parts = [_part([3, 5], [1, 2], [1.0, 2.0])]
    got = _check({3: (5, ["p"]), 4: (5, ["p"])}, parts)
    assert got["query_id"].to_pylist() == [3]


def test_zero_row_parts_and_no_parts():
    empty = _part([], [], [])
    assert _check({1: (5, ["p"])}, []).num_rows == 0
    assert _check({1: (5, ["p"])}, [empty, empty]).num_rows == 0
    assert _check({}, [_part([1], [2], [3.0])]).num_rows == 0
    got = _check({1: (5, ["p"])}, [empty, _part([1], [2], [3.0]), empty])
    assert got.num_rows == 1


def test_scores_pass_through_bit_for_bit():
    s = np.array([0.1 + 0.2, np.nextafter(0.3, 1.0), 0.3, 5e-324], np.float64)
    parts = [_part([0, 0], [1, 2], s[:2]), _part([0, 0], [3, 4], s[2:])]
    _check({0: (4, ["p"])}, parts)


def test_cursor_rows_merge_in_the_rounded_order():
    """A cursor query's shards select their top-k on round(score, dp), so
    the merge orders its rows that way too: a rounded tie straddling k
    breaks on doc_id, wherever the docs live; scores stay unrounded."""
    parts = [_part([7, 8], [10, 10], [1.0000004] * 2),
             _part([7, 8], [5, 5], [1.0000001] * 2)]
    live = {7: QueryPlan(1, [], 1, cursor=(2.0, 0, 6)),
            8: QueryPlan(1, [], 1)}
    got = _merge_topk_parts(live, parts)
    assert got["query_id"].to_pylist() == [7, 8]
    assert got["doc_id"].to_pylist() == [5, 10]
    assert got["score"].to_pylist() == [1.0000001, 1.0000004]
    live[7] = QueryPlan(2, [], 1, cursor=(2.0, 0, 6))
    got = _merge_topk_parts(live, parts)
    assert got["doc_id"].to_pylist() == [5, 10, 10]
    assert got["rank"].to_pylist() == [1, 2, 1]
