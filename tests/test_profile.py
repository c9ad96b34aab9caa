"""Table profiling: exactness of counts/min/max, HLL distinct contract,
null handling, partition invariance."""

import numpy as np
import pandas as pd
import pytest

from archivesspace_virgo_ray.pipelines.profile import profile_columns


@pytest.fixture(scope="module")
def tbl():
    return pd.DataFrame({
        "ik": pd.Series([9, 10, 2, 2, None, 7], dtype="Int64"),
        "sk": ["b", "aa", None, "z", "z", "aa"],
    })


def test_profile_exact_stats_and_null_counts(ray_session, tbl):
    import ray.data

    out = profile_columns(
        ray.data.from_pandas(tbl).repartition(3), ["ik"], ["sk"]
    ).set_index("column")
    assert out.loc["ik", "n_rows"] == 6 and out.loc["ik", "n_nulls"] == 1
    # numeric merge: min must be 2 (a string-min would say "10" < "2" false
    # ordering — regression guard for the stringified-int pitfall)
    assert out.loc["ik", "min_v"] == "2" and out.loc["ik", "max_v"] == "10"
    assert out.loc["sk", "n_nulls"] == 1
    assert out.loc["sk", "min_v"] == "aa" and out.loc["sk", "max_v"] == "z"
    # small-cardinality HLL is exact-ish (linear counting regime)
    assert abs(out.loc["ik", "distinct_hll"] - 4) < 0.5
    assert abs(out.loc["sk", "distinct_hll"] - 3) < 0.5


def test_profile_partition_invariant(ray_session, tbl):
    import ray.data

    a = profile_columns(ray.data.from_pandas(tbl).repartition(1), ["ik"], ["sk"])
    b = profile_columns(ray.data.from_pandas(tbl).repartition(4), ["ik"], ["sk"])
    pd.testing.assert_frame_equal(a, b)


def test_profile_matches_hll_distinct_contract(ray_session):
    """The per-column estimate equals sketches.hll_distinct on the same
    column (same hash, same registers, same bias rule)."""
    import ray.data

    from archivesspace_virgo_ray.pipelines.sketches import hll_distinct

    ds = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet",
                               columns=["event_id"])
    whole = hll_distinct(ds, "event_id")["estimate"].iloc[0]
    prof = profile_columns(ds, ["event_id"], [])
    assert prof["distinct_hll"].iloc[0] == whole


def test_event_funnel_strict_order(ray_session, tmp_path):
    """Strict-order semantics: stages must occur in time order; an
    out-of-order purchase does not convert."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from archivesspace_virgo_ray.pipelines.oracles.events import event_funnel

    def ts(s):
        return pd.Timestamp("2026-01-01") + pd.Timedelta(seconds=s)

    rows = [
        # u1: full ordered funnel
        (1, ts(0), "signup"), (1, ts(10), "view"), (1, ts(20), "purchase"),
        # u2: purchase BEFORE view -> stops at stage 2
        (2, ts(0), "signup"), (2, ts(5), "purchase"), (2, ts(9), "view"),
        # u3: never signs up -> stage 0
        (3, ts(0), "view"), (3, ts(1), "purchase"),
        # u4: signup only
        (4, ts(0), "signup"),
        # u5: ties are strict (view at the same instant as signup misses)
        (5, ts(0), "signup"), (5, ts(0), "view"), (5, ts(1), "purchase"),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows]),
        "event_type": pa.array([r[2] for r in rows]),
    })
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(tbl, str(d / "events.parquet"))
    out = event_funnel(str(d)).set_index("stage")
    assert out.loc[1, "n_users"] == 4   # u1, u2, u4, u5
    assert out.loc[2, "n_users"] == 2   # u1, u2 (u5's view ties -> excluded)
    assert out.loc[3, "n_users"] == 1   # u1 only


def test_retention_cohorts_semantics(ray_session, tmp_path):
    """Cohort = first-activity day; offsets count distinct active users;
    a user active twice on one day counts once."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from archivesspace_virgo_ray.pipelines.oracles.events import (
        retention_cohorts,
    )

    def ts(d, h=0):
        return pd.Timestamp("2026-02-01") + pd.Timedelta(days=d, hours=h)

    rows = [
        (1, ts(0)), (1, ts(0, 5)), (1, ts(2)),       # cohort d0: offsets 0, 2
        (2, ts(0, 23)), (2, ts(1)),                  # cohort d0: offsets 0, 1
        (3, ts(1)),                                  # cohort d1: offset 0
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows]),
    })
    d = tmp_path / "ev2"
    d.mkdir()
    pq.write_table(tbl, str(d / "events.parquet"))
    out = retention_cohorts(str(d))
    got = {(r.cohort_day, r.day_offset): r.n_users for r in out.itertuples()}
    assert got == {
        ("2026-02-01", 0): 2, ("2026-02-01", 1): 1, ("2026-02-01", 2): 1,
        ("2026-02-02", 0): 1,
    }


def test_cms_estimates_upper_bound_and_exact_uncollided(ray_session):
    import ray.data

    from archivesspace_virgo_ray.pipelines.sketches import cms_build, cms_query

    df = pd.DataFrame({
        "text": ["a a a b", "b c", "a d e", "c c b"],
    })
    # true counts: a=4, b=3, c=3, d=1, e=1
    counts = cms_build(ray.data.from_pandas(df).repartition(2), d=4, w=512)
    est = cms_query(counts, ["a", "b", "c", "d", "e", "zz"], d=4, w=512)
    truth = {"a": 4, "b": 3, "c": 3, "d": 1, "e": 1, "zz": 0}
    for t, e in zip(est["term"], est["estimate"]):
        assert e >= truth[t]          # CMS never undercounts
    # at w=512 with 5 distinct terms collisions are absent: exact
    got = dict(zip(est["term"], est["estimate"]))
    assert got == truth
    # partitioning invariance (counters are a sum)
    counts2 = cms_build(ray.data.from_pandas(df).repartition(4), d=4, w=512)
    est2 = cms_query(counts2, ["a", "b", "c", "d", "e", "zz"], d=4, w=512)
    assert est2["estimate"].tolist() == est["estimate"].tolist()
