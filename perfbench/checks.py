"""Correctness checks against the single-process BM25 oracle.

Expected answers are exact: doc ids in rank order and scores compared
bit for bit (``float.hex``), per the engine's float contract. They are
cached per corpus key, so a repeated seed skips the oracle build.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa


def single_query(text: str, k: int, query_id: int = 0) -> pa.Table:
    return pa.table({"query_id": pa.array([query_id], pa.int64()),
                     "text": pa.array([text], pa.string()),
                     "k": pa.array([k], pa.int32())})


def answers_by_qid(result: pa.Table) -> dict[int, list[tuple[int, str]]]:
    """bm25_topk result -> query_id -> [(doc_id, score hex)] in rank order."""
    rows = sorted(zip(result["query_id"].to_pylist(), result["rank"].to_pylist(),
                      result["doc_id"].to_pylist(), result["score"].to_pylist()))
    out: dict[int, list[tuple[int, str]]] = {}
    for qid, _rank, doc, score in rows:
        out.setdefault(qid, []).append((int(doc), float(score).hex()))
    return out


class Expected:
    """Oracle answers for one document set, computed lazily and cached in
    ``path`` (JSON, keyed by ``"<k>\\t<text>"``)."""

    def __init__(self, path: str, doc_ids, contents):
        self.path = path
        self._docs = (doc_ids, contents)
        self._oracle = None
        self._dirty = False
        try:
            with open(path) as f:
                self._cache = json.load(f)
        except (OSError, ValueError):
            self._cache = {}

    def answer(self, text: str, k: int) -> list[tuple[int, str]]:
        key = f"{k}\t{text}"
        if key not in self._cache:
            if self._oracle is None:
                from archivesspace_virgo_ray.oracle import OracleIndex

                self._oracle = OracleIndex(*self._docs)
            self._cache[key] = [[int(d), float(s).hex()]
                                for d, s in self._oracle.score_query(text, k)]
            self._dirty = True
        return [(d, s) for d, s in self._cache[key]]

    def save(self) -> None:
        if self._dirty:
            tmp = self.path + f".tmp{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(self._cache, f)
            os.replace(tmp, self.path)
            self._dirty = False
