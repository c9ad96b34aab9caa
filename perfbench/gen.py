"""Seeded inputs for the benchmark: code corpus, query mix and delta stream.

Everything here is owned by the benchmark, so a change to the engine cannot
change what a workload feeds it. The same ``(sizes, seed)`` always produces
byte-identical parquet and identical query / delta sequences.

Corpus rows follow the engine's input-hint schema ``(repo, path, commit,
lang, content)``. Content is Zipfian over an identifier vocabulary, with head
terms at ~20% density and one planted needle term per document
(``needle_<row>``), so every document can be probed by a single-hit query.
Document lengths are those of the package's own generator (``corpus.py``:
50-1200 tokens, inside FIXTURES.md's 50-4000).

The query mix (popularity skew, kind shares, k) is an assumption, not taken
from a query log; README.md says what each value was chosen for.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# bump when the generated bytes change for an unchanged (sizes, seed)
GEN_VERSION = 1

HEAD_TERMS = ("the", "def", "return", "license", "import", "self", "if", "for")
LANGS = ("py", "java", "js", "go", "rs", "md")
LANG_P = (0.35, 0.2, 0.15, 0.12, 0.1, 0.08)
_STEMS = (
    "parse", "index", "token", "batch", "shard", "merge", "query", "score",
    "record", "field", "value", "stream", "block", "posting", "segment", "doc",
    "read", "write", "hash", "sort", "filter", "map", "reduce", "join", "group",
    "agg", "count", "sum", "split", "encode", "decode", "flush", "commit",
    "buffer", "cache", "client", "server", "config", "error", "retry", "state",
)
VOCAB = tuple(f"{s}{i}" for i in range(48) for s in _STEMS)  # rank order
_SEPS = (" ", " ", " ", "\n", "(", ") ", "{ ", "} ", ".")


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Every generation parameter; all of them key the parquet cache."""

    n_docs: int = 1000
    min_tokens: int = 50        # corpus.py's document-length range
    max_tokens: int = 1200
    zipf_s: float = 1.1
    head_density: float = 0.2
    n_repos: int = 16
    n_queries: int = 2000       # distinct queries in the popularity pool
                                # (a multiple of the 80-slot kind/k cycle)
    query_zipf_s: float = 0.6   # popularity skew over that pool (assumed)
    batch_rows: int = 160       # rows of one batch-phase query table
    n_deltas: int = 4
    # per delta, as a share of n_docs; together they push the garbage
    # fraction past maintain()'s default dead_ratio of 0.10
    delta_new: float = 0.017
    delta_replace: float = 0.024
    delta_delete: float = 0.017

    def per_delta(self) -> tuple[int, int, int]:
        """(new, replaced, deleted) docs per delta generation."""
        return tuple(max(1, int(np.ceil(share * self.n_docs)))
                     for share in (self.delta_new, self.delta_replace, self.delta_delete))

    def key(self, seed: int) -> str:
        blob = json.dumps(
            {"v": GEN_VERSION, "seed": seed, **dataclasses.asdict(self)},
            sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def needle(row: int, version: int = 0) -> str:
    return f"needle_{row:06d}" if version == 0 else f"needle_{row:06d}_v{version}"


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent stream per purpose, so growing one input never shifts
    another's draws."""
    h = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return np.random.default_rng(int.from_bytes(h[:8], "little"))


def _contents(rng: np.random.Generator, sizes: Sizes, needles: list[str]) -> list[str]:
    n = len(needles)
    vocab = np.asarray(VOCAB, dtype=object)
    ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
    probs = ranks ** -sizes.zipf_s
    probs /= probs.sum()
    n_tok = rng.integers(sizes.min_tokens, sizes.max_tokens + 1, size=n)
    total = int(n_tok.sum())
    toks = vocab[rng.choice(len(vocab), size=total, p=probs)]
    head = rng.random(total) < sizes.head_density
    toks[head] = np.asarray(HEAD_TERMS, dtype=object)[
        rng.integers(0, len(HEAD_TERMS), size=int(head.sum()))]
    seps = np.asarray(_SEPS, dtype=object)[rng.integers(0, len(_SEPS), size=total)]
    words = toks + seps
    ends = np.cumsum(n_tok)
    out = []
    for i in range(n):
        lo = ends[i] - n_tok[i]
        out.append("".join(words[lo:ends[i]]) + needles[i])
    return out


def _table(rows: np.ndarray, sizes: Sizes, seed: int, rng: np.random.Generator,
           needles: list[str], path_prefix: str = "") -> pa.Table:
    n = len(rows)
    repo_p = 1.0 / np.arange(1, sizes.n_repos + 1)
    repo_p /= repo_p.sum()
    repo_idx = rng.choice(sizes.n_repos, size=n, p=repo_p)
    lang_idx = rng.choice(len(LANGS), size=n, p=LANG_P)
    dirs = rng.integers(0, 8, size=(n, 2))
    repos = [f"repo{r}" for r in repo_idx]
    langs = [LANGS[j] for j in lang_idx]
    paths = [f"{path_prefix}dir{a}/dir{b}/file{r}.{lang}"
             for (a, b), r, lang in zip(dirs, rows, langs)]
    commits = [hashlib.sha256(f"{r}:{seed}".encode()).hexdigest()[:40] for r in repos]
    return pa.table({
        "repo": pa.array(repos, pa.string()),
        "path": pa.array(paths, pa.string()),
        "commit": pa.array(commits, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "content": pa.array(_contents(rng, sizes, needles), pa.string()),
    })


def corpus_table(sizes: Sizes, seed: int) -> pa.Table:
    rows = np.arange(sizes.n_docs)
    return _table(rows, sizes, seed, _rng(seed, "corpus"),
                  [needle(int(r)) for r in rows])


@dataclasses.dataclass
class Delta:
    """One delta generation: new docs plus replacements (same natural key,
    new content) in one table, and base rows to delete afterwards."""

    gen: int
    table: pa.Table           # new docs first, then replacements
    new_rows: list[int]       # synthetic row numbers of the new docs
    replaced_rows: list[int]  # base rows whose content is replaced
    deleted_rows: list[int]   # base rows deleted after the add
    probe_needle: str         # needle of the first new doc


def delta_stream(sizes: Sizes, seed: int, base: pa.Table) -> list[Delta]:
    """Replaced and deleted rows are disjoint across the whole stream, so
    every probe has one expected answer."""
    rng = _rng(seed, "deltas")
    n_new, n_rep, n_del = sizes.per_delta()
    order = rng.permutation(sizes.n_docs)
    out = []
    for g in range(1, sizes.n_deltas + 1):
        take = order[(g - 1) * (n_rep + n_del): g * (n_rep + n_del)]
        rep, dele = sorted(int(r) for r in take[:n_rep]), sorted(int(r) for r in take[n_rep:])
        new_rows = list(range(sizes.n_docs + (g - 1) * n_new, sizes.n_docs + g * n_new))
        new = _table(np.asarray(new_rows), sizes, seed, rng,
                     [needle(r) for r in new_rows], path_prefix=f"delta{g}/")
        fresh = _table(np.asarray(rep), sizes, seed, rng,
                       [needle(r, g) for r in rep])
        # replacements keep the base row's natural key, so they map to the
        # same doc id; only the content (and so the needle) changes
        keyed = base.take(pa.array(rep, pa.int64())).set_column(
            4, "content", fresh["content"])
        out.append(Delta(g, pa.concat_tables([new, keyed]), new_rows, rep,
                         dele, needle(new_rows[0])))
    return out


# kinds of query in the popularity pool, with their shares out of 20
# (assumed: every kind the read path treats differently, multi-term most)
QUERY_KINDS = (("head", 3), ("rare", 4), ("needle", 4), ("multi", 7), ("zero", 2))


def _kind_pattern() -> list[str]:
    """The 20 kinds of one cycle, spread evenly (smooth weighted
    round-robin), so every popularity band and every batch table holds the
    same mix of kinds whatever the seed."""
    credit = {k: 0 for k, _ in QUERY_KINDS}
    out = []
    for _ in range(sum(w for _, w in QUERY_KINDS)):
        for k, w in QUERY_KINDS:
            credit[k] += w
        best = max(credit, key=lambda k: credit[k])
        credit[best] -= sum(w for _, w in QUERY_KINDS)
        out.append(best)
    return out


KIND_PATTERN = _kind_pattern()
# slot s of the pool: kind KIND_PATTERN[s % 20]; k = 100 on one slot in four,
# rotating so each kind position gets k=100 once per 80 slots
SLOT_CYCLE = 4 * len(KIND_PATTERN)


def slot_kind_k(s: int) -> tuple[str, int]:
    n = len(KIND_PATTERN)
    return KIND_PATTERN[s % n], 100 if (s % n + s // n) % 4 == 0 else 10


@dataclasses.dataclass
class QueryMix:
    texts: list[str]          # distinct queries; popularity rank = index
    ks: list[int]
    stream: np.ndarray        # indices into texts, Zipfian by rank
    batches: list[pa.Table]   # batch-phase tables, query_id 0..rows-1


def _query_text(rng: np.random.Generator, kind: str, n_docs: int) -> str:
    vocab, nv = VOCAB, len(VOCAB)
    if kind == "head":
        return " ".join(rng.choice(HEAD_TERMS, size=int(rng.integers(1, 3)),
                                   replace=False))
    if kind == "rare":
        return vocab[int(rng.integers(nv // 2, nv))]
    if kind == "needle":
        return needle(int(rng.integers(0, n_docs)))
    if kind == "multi":
        terms = [vocab[int(i)] for i in rng.integers(0, nv, size=int(rng.integers(2, 5)))]
        if rng.random() < 0.3:
            terms.append(HEAD_TERMS[int(rng.integers(0, len(HEAD_TERMS)))])
        return " ".join(terms)
    return f"zq{int(rng.integers(0, 10**9))}nohit"


def query_mix(sizes: Sizes, seed: int, stream_len: int = 50_000,
              n_batches: int = 8) -> QueryMix:
    """Pool of distinct queries (head-term, rare, needle, 2-4-term and
    zero-hit; k in {10, 100}), a Zipfian request stream over it, and batch
    tables with the pool's exact kind/k mix."""
    rng = _rng(seed, "queries")
    slots = [slot_kind_k(s) for s in range(sizes.n_queries)]
    texts = [_query_text(rng, kind, sizes.n_docs) for kind, _ in slots]
    ks = [k for _, k in slots]
    ranks = np.arange(1, sizes.n_queries + 1, dtype=np.float64)
    p = ranks ** -sizes.query_zipf_s
    p /= p.sum()
    stream = rng.choice(sizes.n_queries, size=stream_len, p=p)
    n_cycles = -(-sizes.n_queries // SLOT_CYCLE)
    batches = []
    for _ in range(n_batches):
        # row i takes a random pool query from pool slot class i % SLOT_CYCLE
        pick = [min(sizes.n_queries - 1,
                    int(rng.integers(0, n_cycles)) * SLOT_CYCLE + i % SLOT_CYCLE)
                for i in range(sizes.batch_rows)]
        batches.append(pa.table({
            "query_id": pa.array(np.arange(sizes.batch_rows), pa.int64()),
            "text": pa.array([texts[i] for i in pick], pa.string()),
            "k": pa.array([ks[i] for i in pick], pa.int32()),
        }))
    return QueryMix(texts, ks, stream, batches)


def cached_corpus(cache_root: str, sizes: Sizes, seed: int) -> str:
    """Path of the corpus parquet dir, generated once per (sizes, seed).
    The ``_COMPLETE`` marker is written last, so a crash mid-write only
    costs a regeneration."""
    d = os.path.join(cache_root, f"corpus-{sizes.key(seed)}")
    if not os.path.exists(os.path.join(d, "_COMPLETE")):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        pq.write_table(corpus_table(sizes, seed), os.path.join(d, "part-00000.parquet"))
        open(os.path.join(d, "_COMPLETE"), "w").close()
    return d


def parquet_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path) if f.endswith(".parquet"))
