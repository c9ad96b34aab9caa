"""Event-stream oracles (sessions, funnels, retention, trends)."""

from __future__ import annotations

import os
import numpy as np
import pandas as pd
import ray.data

from .common import SESSION_BUCKETS


# event funnel analysis (strict-order conversion): per user, the first
# signup, the first view strictly after it, the first purchase strictly
# after that; output = users reaching each stage. Same shuffle shape as
# sessionization: hash-bucket by user, ONE vectorized pass per bucket
# (merge + min, never a Python loop per user), then a tiny stage-count
# merge on the driver.
FUNNEL_STAGES = ["signup", "view", "purchase"]


def event_funnel(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = (
            pd.util.hash_array(df["user_id"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return df

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        prev = (
            g[g["event_type"] == FUNNEL_STAGES[0]]
            .groupby("user_id")["ts"].min()
        )
        counts = [len(prev)]
        for stage in FUNNEL_STAGES[1:]:
            marks = prev.rename("t_prev").reset_index()
            ev = g[g["event_type"] == stage].reset_index(drop=True).merge(
                marks, on="user_id"
            )
            prev = ev[ev["ts"] > ev["t_prev"]].groupby("user_id")["ts"].min()
            counts.append(len(prev))
        return pd.DataFrame({
            "stage": pd.Series(range(1, len(FUNNEL_STAGES) + 1), dtype=np.int64),
            "event_type": pd.Series(FUNNEL_STAGES, dtype=object),
            "n_users": pd.Series(counts, dtype=np.int64),
        })

    parts = (
        ds.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(funnel_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = (
        parts.groupby(["stage", "event_type"], as_index=False)["n_users"].sum()
    )
    out["stage"] = out["stage"].astype(np.int64)
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values("stage", ignore_index=True)


def retention_cohorts(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = (
            pd.util.hash_array(df["user_id"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return df

    def cohort_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.reset_index(drop=True).copy()
        g["day"] = g["ts"].dt.floor("D")
        first = (
            g.groupby("user_id")["day"].min().rename("cohort").reset_index()
        )
        m = g.merge(first, on="user_id")
        m["day_offset"] = (m["day"] - m["cohort"]).dt.days.astype(np.int64)
        d = m.drop_duplicates(["user_id", "day_offset"])
        out = (
            d.groupby(["cohort", "day_offset"], as_index=False)
            .agg(n_users=("user_id", "size"))
        )
        out["cohort_day"] = out["cohort"].dt.strftime("%Y-%m-%d")
        return out[["cohort_day", "day_offset", "n_users"]].astype(
            {"day_offset": np.int64, "n_users": np.int64}
        )

    parts = (
        ds.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(cohort_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = (
        parts.groupby(["cohort_day", "day_offset"], as_index=False)["n_users"]
        .sum()
    )
    out["day_offset"] = out["day_offset"].astype(np.int64)
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values(["cohort_day", "day_offset"], ignore_index=True)


def dirty_refs(sf_dir: str):
    """A1/O5-style union + distinct over two discovery paths."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "event_type"])
    clicks = ds.map_batches(
        lambda df: df.loc[df["event_type"] == "click", ["user_id"]].drop_duplicates(),
        batch_format="pandas",
    )
    errors = ds.map_batches(
        lambda df: df.loc[df["event_type"] == "error", ["user_id"]].drop_duplicates(),
        batch_format="pandas",
    )
    from ..docpipe import distinct

    out = distinct(clicks.union(errors), "user_id")
    return out.map_batches(
        lambda df: df.rename(columns={"user_id": "ref"}), batch_format="pandas"
    )


SESSION_GAP_MIN = 30


def events_hourly_ma3(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hour = df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        g = pd.DataFrame({"hour_epoch": hour}).groupby(
            "hour_epoch", as_index=False).size()
        return g.rename(columns={"size": "n_events"}).astype(
            {"n_events": np.int64})

    from ...state.aggregates import tree_aggregate

    hourly = tree_aggregate(ds, ["hour_epoch"], partial,
                            {"n_events": "sum"}).to_pandas()
    hourly = hourly.set_index("hour_epoch")["n_events"]
    grid = np.arange(hourly.index.min(), hourly.index.max() + 3600, 3600)
    n = hourly.reindex(grid, fill_value=0).astype(np.int64)
    ma3 = n.astype(np.float64).rolling(3, min_periods=1).mean().round(6)
    deriv = n.diff().fillna(0).astype(np.int64)
    return pd.DataFrame({
        "hour_epoch": grid.astype(np.int64),
        "n_events": n.to_numpy(),
        "ma3": ma3.to_numpy(),
        "deriv": deriv.to_numpy(),
    })


# Broadcast anti-join: viewers who NEVER made a big purchase (value ≥
# BIG_PURCHASE_MIN) — the high-value-conversion drop-off cohort (the plain
# "never purchased any" variant is degenerate on this corpus: every user
# has every event type). Both distinct sets distill distributed
# (column-pruned, predicate-pushed reads); the big-buyer set (small side)
# broadcasts as an exclusion predicate — never an event-table shuffle.
BIG_PURCHASE_MIN = 250.0


def viewers_never_purchased(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    path = os.path.join(sf_dir, "events.parquet")
    buyers = np.sort(np.asarray(
        ray.data.read_parquet(
            path, columns=["user_id"],
            filter=((pads.field("event_type") == "purchase")
                    & (pads.field("value") >= BIG_PURCHASE_MIN)),
        ).unique("user_id"),
        np.int64,
    ))
    import ray as _ray

    buyers_ref = _ray.put(buyers)

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        b = _ray.get(buyers_ref)
        u = df["user_id"].unique()
        pos = np.searchsorted(b, u)
        ok = pos < len(b)
        is_buyer = np.zeros(len(u), dtype=bool)
        if len(b):
            is_buyer[ok] = b[pos[ok]] == u[ok]
        return pd.DataFrame({"user_id": pd.Series(u[~is_buyer],
                                                  dtype=np.int64)})

    out = (
        ray.data.read_parquet(
            path, columns=["user_id"],
            filter=(pads.field("event_type") == "view"),
        )
        .map_batches(anti, batch_format="pandas")
        .unique("user_id")
    )
    return pd.DataFrame({
        "user_id": pd.Series(sorted(int(u) for u in (out or [])),
                             dtype=np.int64)
    })


def time_to_first_purchase(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
        filter=(pads.field("event_type").isin(["view", "purchase"])),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df.assign(
            t=df["ts"].astype("datetime64[us]").astype("int64"))
        g = e.pivot_table(index="user_id", columns="event_type", values="t",
                          aggfunc="min")
        g = g.reindex(columns=["view", "purchase"])
        out = pd.DataFrame({
            "user_id": g.index.to_numpy(np.int64),
            "first_view": g["view"].to_numpy(np.float64),
            "first_purchase": g["purchase"].to_numpy(np.float64),
        })
        return out

    from ...state.aggregates import tree_aggregate

    agg = tree_aggregate(ds, ["user_id"], partial,
                         {"first_view": "min", "first_purchase": "min"}
                         ).to_pandas()
    agg = agg.dropna(subset=["first_view", "first_purchase"])
    out = pd.DataFrame({
        "user_id": agg["user_id"].astype(np.int64),
        "delta_s": ((agg["first_purchase"] - agg["first_view"])
                    / 1_000_000.0).round(6),
    })
    return out.sort_values("user_id", ignore_index=True)


# ---------------------------------------------------------------------------
# Winsorized statistics (outlier clipping, the standard robust-mean step
# before normalizing a numeric feature): exact distributed p01/p99 via the
# two-pass histogram quantile, thresholds ROUNDED to 6 dp so both sides clip
# at bit-identical boundaries, then one streaming clipped-moment pass.
# ---------------------------------------------------------------------------

WINSOR_QS = (0.01, 0.99)


def winsorized_value_stats(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate
    from ..quantiles import exact_quantiles

    path = os.path.join(sf_dir, "events.parquet")
    ds = ray.data.read_parquet(path, columns=["value"])
    qs = exact_quantiles(ds, "value", list(WINSOR_QS))
    lo = round(float(qs.loc[qs["q"] == WINSOR_QS[0], "value"].iloc[0]), 6)
    hi = round(float(qs.loc[qs["q"] == WINSOR_QS[1], "value"].iloc[0]), 6)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        c = np.clip(v, lo, hi)
        return pd.DataFrame({
            "k": [0], "s": [float(c.sum())], "n": [len(c)],
            "n_low": [int((v < lo).sum())], "n_high": [int((v > hi).sum())]})

    agg = tree_aggregate(
        ray.data.read_parquet(path, columns=["value"]),
        ["k"], partial,
        {"s": "sum", "n": "sum", "n_low": "sum", "n_high": "sum"},
    ).to_pandas()
    return pd.DataFrame({
        "lo": [lo], "hi": [hi],
        "winsorized_mean": [round(float(agg["s"].iloc[0])
                                  / float(agg["n"].iloc[0]), 6)],
        "n_clipped_low": [np.int64(agg["n_low"].iloc[0])],
        "n_clipped_high": [np.int64(agg["n_high"].iloc[0])],
    })


def props_k_stats_by_type(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].str.extract(r'"k"\s*:\s*(-?\d+)', expand=False)
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                            "k": pd.to_numeric(k)})
        out = out.dropna(subset=["k"])
        out["k"] = out["k"].astype(np.int64)
        g = out.groupby("event_type", as_index=False).agg(
            n=("k", "size"), s=("k", "sum"),
            min_k=("k", "min"), max_k=("k", "max"))
        return g

    agg = tree_aggregate(ds, ["event_type"], partial,
                         {"n": "sum", "s": "sum",
                          "min_k": "min", "max_k": "max"}).to_pandas()
    out = pd.DataFrame({
        "event_type": agg["event_type"],
        "n": agg["n"].astype(np.int64),
        "avg_k": np.round(agg["s"] / agg["n"], 6),
        "min_k": agg["min_k"].astype(np.int64),
        "max_k": agg["max_k"].astype(np.int64),
    })
    return out.sort_values("event_type", ignore_index=True)


def value_mad_by_type(sf_dir: str) -> pd.DataFrame:
    from ..quantiles import grouped_quantiles

    path = os.path.join(sf_dir, "events.parquet")
    ds = ray.data.read_parquet(path, columns=["event_type", "value"])
    med = grouped_quantiles(ds, "event_type", "value", [0.5])
    med_map = dict(zip(med["event_type"], med["value"]))
    med_ref = ray.put(med_map)

    def dev(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(med_ref)
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "value": np.abs(df["value"].to_numpy(np.float64)
                            - df["event_type"].map(m).to_numpy(np.float64)),
        })

    devs = ray.data.read_parquet(
        path, columns=["event_type", "value"]
    ).map_batches(dev, batch_format="pandas")
    mad = grouped_quantiles(devs, "event_type", "value", [0.5])
    mad_map = dict(zip(mad["event_type"], mad["value"]))
    out = pd.DataFrame({
        "event_type": sorted(med_map),
        "median": [round(float(med_map[t]), 6) for t in sorted(med_map)],
        "mad": [round(float(mad_map[t]), 6) for t in sorted(med_map)],
    })
    return out


def ab_conversion_ztest(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "conv": (df["event_type"].to_numpy() == "purchase")
            .astype(np.int64)})
        return out.groupby("user_id", as_index=False)["conv"].max()

    users = tree_aggregate(ds, ["user_id"], partial,
                           {"conv": "max"}).to_pandas()
    grp = users["user_id"].to_numpy(np.int64) % 2
    conv = users["conv"].to_numpy(np.int64)
    na, nb = int((grp == 0).sum()), int((grp == 1).sum())
    ca, cb = int(conv[grp == 0].sum()), int(conv[grp == 1].sum())
    pa_, pb_ = ca / na, cb / nb
    pool = (ca + cb) / (na + nb)
    z = (pa_ - pb_) / np.sqrt(pool * (1 - pool) * (1 / na + 1 / nb))
    return pd.DataFrame({
        "n_a": [np.int64(na)], "n_b": [np.int64(nb)],
        "rate_a": [round(pa_, 6)], "rate_b": [round(pb_, 6)],
        "z": [round(float(z), 6)],
    })


def event_session_ids(sf_dir: str):
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"])

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = (
            pd.util.hash_array(df["user_id"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return df

    gap_s = SESSION_GAP_MIN * 60

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort",
                          ignore_index=True)
        uid = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].astype("datetime64[s]").astype("int64").to_numpy()
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        gap_break = np.r_[False, (ts[1:] - ts[:-1]) > gap_s] & ~new_user
        # session_id restarts at 1 per user: cumsum of breaks, minus the
        # running value at each user's first row
        brk = (new_user | gap_break).astype(np.int64)
        run = np.cumsum(brk)
        base = run[new_user][np.cumsum(new_user) - 1]
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "user_id": uid,
            "session_id": (run - base + 1).astype(np.int64)})

    return (
        ds.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(assign, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Session conversion rate (the product-analytics headline number): fraction
# of 30-min-gap sessions containing a purchase. Reuses event_session_ids'
# exact session semantics (second-truncated gaps, (ts, event_id) order);
# per-bucket (n_sessions, n_converting) partials are all that leave the
# user-bucketed groups.
# ---------------------------------------------------------------------------

CONVERSION_EVENT = "purchase"


def session_conversion_rate(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"])

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = (
            pd.util.hash_array(df["user_id"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)).astype(np.int64)
        return df

    gap_s = SESSION_GAP_MIN * 60

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort",
                          ignore_index=True)
        uid = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].astype("datetime64[s]").astype("int64").to_numpy()
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        gap_break = np.r_[False, (ts[1:] - ts[:-1]) > gap_s] & ~new_user
        run = np.cumsum((new_user | gap_break).astype(np.int64))
        conv = (g["event_type"].to_numpy() == CONVERSION_EVENT)
        n_sessions = int(run[-1]) if len(run) else 0
        n_conv = int(pd.Series(conv).groupby(run).max().sum()) \
            if len(run) else 0
        return pd.DataFrame({"k": ["all"],
                             "n_sessions": np.int64(n_sessions),
                             "n_converting": np.int64(n_conv)})

    parts = (ds.map_batches(bucketize, batch_format="pandas")
             .groupby("__b__")
             .map_groups(per_bucket, batch_format="pandas"))

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        return df[["k", "n_sessions", "n_converting"]]

    a = tree_aggregate(parts, ["k"], ident,
                       {"n_sessions": "sum", "n_converting": "sum"}
                       ).to_pandas()
    ns = int(a["n_sessions"].iloc[0])
    nc = int(a["n_converting"].iloc[0])
    return pd.DataFrame({
        "n_sessions": pd.Series([ns], dtype=np.int64),
        "n_converting": pd.Series([nc], dtype=np.int64),
        "conversion_rate": [round(nc / ns, 6)] if ns else [0.0],
    })


# ---------------------------------------------------------------------------
# Per-type linear trend (drift detection over a metric stream): least-squares
# slope/intercept of value vs time from ONE pass of exact sufficient
# statistics (n, Σx, Σy, Σx², Σxy) per event type. x is DAYS since a fixed
# epoch so x² stays ~1e3 — well inside float64's exact-integer range; epoch
# seconds squared (~1e18) would not be. The oracle states the same closed
# form over SQL sums rather than regr_slope so both sides share one formula
# and only the (6-dp-absorbed) summation order differs.
# ---------------------------------------------------------------------------

TREND_EPOCH = "2024-01-01"


def value_trend_by_type(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type", "value"])
    epoch = pd.Timestamp(TREND_EPOCH)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = ((df["ts"] - epoch).dt.total_seconds() / 86400.0).to_numpy()
        y = df["value"].to_numpy(np.float64)
        g = pd.DataFrame({
            "event_type": df["event_type"],
            "n": np.int64(1), "sx": x, "sy": y, "sxx": x * x, "sxy": x * y,
        })
        return g.groupby("event_type", as_index=False).agg(
            n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
            sxx=("sxx", "sum"), sxy=("sxy", "sum"))

    a = tree_aggregate(ds, ["event_type"], partial,
                       {"n": "sum", "sx": "sum", "sy": "sum",
                        "sxx": "sum", "sxy": "sum"}).to_pandas()
    n = a["n"].to_numpy(np.float64)
    sx, sy = a["sx"].to_numpy(), a["sy"].to_numpy()
    sxx, sxy = a["sxx"].to_numpy(), a["sxy"].to_numpy()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    out = pd.DataFrame({
        "event_type": a["event_type"],
        "n": a["n"].astype(np.int64),
        "slope": np.round(slope, 6),
        "intercept": np.round((sy - slope * sx) / n, 6),
    })
    return out.sort_values("event_type", ignore_index=True)


# ---------------------------------------------------------------------------
# Windowed event dedup rate (stream hygiene: the same user re-firing the
# same event within the window is a duplicate): LAG-vs-previous-raw-event
# semantics, diffs compared in EXACT integer microseconds so neither side
# truncates. One user-bucketed shuffle; inside a bucket the lag is a
# vectorized shifted comparison over the (user, type, ts, event_id) sort.
# ---------------------------------------------------------------------------

EVENT_DEDUP_WINDOW_US = 3600 * 1_000_000


def event_dedup_rate(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"])

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["event_id", "ts", "user_id", "event_type"]].copy()
        out["__b__"] = (
            pd.util.hash_array(out["user_id"].to_numpy(np.int64),
                               categorize=False)
            % np.uint64(SESSION_BUCKETS)).astype(np.int64)
        return out

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"],
                          kind="mergesort")
        us = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = np.zeros(len(g), dtype=bool)
        if len(g) > 1:
            same[1:] = ((g["user_id"].to_numpy()[1:]
                         == g["user_id"].to_numpy()[:-1])
                        & (g["event_type"].to_numpy()[1:]
                           == g["event_type"].to_numpy()[:-1]))
        diff = np.empty(len(g), dtype=np.int64)
        diff[0] = np.iinfo(np.int64).max
        if len(g) > 1:
            diff[1:] = us[1:] - us[:-1]
        dropped = same & (diff <= EVENT_DEDUP_WINDOW_US)
        out = pd.DataFrame({
            "event_type": g["event_type"].to_numpy(),
            "n_events": np.int64(1),
            "n_dropped": dropped.astype(np.int64),
        })
        return out.groupby("event_type", as_index=False).agg(
            n_events=("n_events", "sum"), n_dropped=("n_dropped", "sum"))

    parts = (ds.map_batches(bucketed, batch_format="pandas")
             .groupby("__b__")
             .map_groups(per_bucket, batch_format="pandas"))

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        return df[["event_type", "n_events", "n_dropped"]]

    a = tree_aggregate(parts, ["event_type"], ident,
                       {"n_events": "sum", "n_dropped": "sum"}).to_pandas()
    out = pd.DataFrame({
        "event_type": a["event_type"],
        "n_events": a["n_events"].astype(np.int64),
        "n_dropped": a["n_dropped"].astype(np.int64),
        "drop_rate": np.round(a["n_dropped"].to_numpy(np.float64)
                              / a["n_events"].to_numpy(np.float64), 6),
    })
    return out.sort_values("event_type", ignore_index=True)


# ---------------------------------------------------------------------------
# Hourly anomaly detection (ops-dashboard shape): per event type, z-score of
# each hour's event count against that type's own hourly mean/stddev
# (population). Counts are integers, so the (n, Σc, Σc²) moments are EXACT
# on both engines regardless of merge order — the z only sees one float
# division at the end, rounded to 6 dp. One tree pass for hourly counts
# (hour-type cardinality is bounded), driver arithmetic on the tiny table.
# ---------------------------------------------------------------------------

ANOMALY_Z = 3.0


def events_anomaly_zscore(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "event_type": df["event_type"],
            "hour": df["ts"].dt.floor("h"),
            "n": np.int64(1),
        })
        return out.groupby(["event_type", "hour"], as_index=False).agg(
            n=("n", "sum"))

    hc = tree_aggregate(ds, ["event_type", "hour"], partial,
                        {"n": "sum"}).to_pandas()
    hc["n"] = hc["n"].astype(np.int64)
    g = hc.groupby("event_type")["n"]
    mean = g.transform("mean")
    # population stddev from exact integer moments
    sq = hc.groupby("event_type")["n"].transform(
        lambda s: np.sqrt((np.square(s.to_numpy(np.float64))).mean()
                          - s.to_numpy(np.float64).mean() ** 2))
    z = (hc["n"] - mean) / sq
    out = pd.DataFrame({
        "event_type": hc["event_type"],
        "hour": hc["hour"],
        "n": hc["n"],
        "z": np.round(z.to_numpy(np.float64), 6),
    })
    out = out[np.abs(out["z"]) > ANOMALY_Z]
    return out.sort_values(["event_type", "hour"], ignore_index=True)


# ---------------------------------------------------------------------------
# Sliding-window distinct (7-day active users per day): the exact
# COUNT(DISTINCT) OVER a range window, distributed without re-scanning per
# window. Distinct (user, day) pairs are user-bucketed; inside a bucket each
# active day expands to the <=7 window days it covers, (user, window-day)
# dedups VECTORIZED within the bucket (a user's pairs all live in one
# bucket, so the dedup is exact), and only (window-day, count) partials —
# O(#days) rows — leave the bucket. Window days are then restricted to days
# that actually occur, matching the oracle's day list.
# ---------------------------------------------------------------------------

ROLLING_DAU_WINDOW_DAYS = 7


def rolling_7d_active_users(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "user_id"])
    w = ROLLING_DAU_WINDOW_DAYS

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "day": df["ts"].dt.floor("D"),
            "user_id": df["user_id"].to_numpy(np.int64),
        }).drop_duplicates()
        out["__b__"] = (
            pd.util.hash_array(out["user_id"].to_numpy(np.int64),
                               categorize=False)
            % np.uint64(SESSION_BUCKETS)).astype(np.int64)
        return out

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["day", "user_id"]].drop_duplicates()
        days = g["day"].to_numpy("datetime64[D]")
        users = g["user_id"].to_numpy(np.int64)
        cov_day = (np.repeat(days, w)
                   + np.tile(np.arange(w, dtype="timedelta64[D]"),
                             len(days)))
        cov_user = np.repeat(users, w)
        pairs = pd.DataFrame({"day": cov_day.astype("datetime64[us]"),
                              "user_id": cov_user}).drop_duplicates()
        out = pairs.groupby("day", as_index=False).agg(
            active_users_7d=("user_id", "size"))
        out["active_users_7d"] = out["active_users_7d"].astype(np.int64)
        return out

    parts = (ds.map_batches(bucketed, batch_format="pandas")
             .groupby("__b__")
             .map_groups(expand, batch_format="pandas"))

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        return df[["day", "active_users_7d"]]

    agg = tree_aggregate(parts, ["day"], ident,
                         {"active_users_7d": "sum"}).to_pandas()
    # restrict to days that occur in the data (the window's anchor set)
    present = ds.map_batches(
        lambda df: pd.DataFrame({"day": df["ts"].dt.floor("D")})
        .drop_duplicates(),
        batch_format="pandas").to_pandas().drop_duplicates()
    agg = agg[agg["day"].isin(set(present["day"]))]
    agg["active_users_7d"] = agg["active_users_7d"].astype(np.int64)
    return agg.sort_values("day", ignore_index=True)


# ---------------------------------------------------------------------------
# Churn-label training table (ML dataset construction from an event log):
# per-user feature vector (event counts per type before the cutoff) plus the
# churn label (no activity on/after the cutoff). One keyed pass — per-batch
# pivoted partials merge by sum, the label rides as max(post-cutoff flag)
# inverted at the end. Emits one row per user, including users whose only
# activity is post-cutoff (all-zero features, label 0).
# ---------------------------------------------------------------------------

CHURN_CUTOFF = "2024-01-24"


CHURN_TYPES = ("click", "error", "purchase", "signup", "view")


def churn_training_table(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "user_id", "event_type"])
    cutoff = pd.Timestamp(CHURN_CUTOFF)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        pre = df["ts"] < cutoff
        out = pd.DataFrame({"user_id": df["user_id"].to_numpy(np.int64)})
        et = df["event_type"].to_numpy()
        for t in CHURN_TYPES:
            out[f"n_{t}"] = ((et == t) & pre.to_numpy()).astype(np.int64)
        out["post"] = (~pre).to_numpy().astype(np.int64)
        return out.groupby("user_id", as_index=False).agg(
            {**{f"n_{t}": "sum" for t in CHURN_TYPES}, "post": "max"})

    spec = {f"n_{t}": "sum" for t in CHURN_TYPES}
    spec["post"] = "max"
    a = tree_aggregate(ds, ["user_id"], partial, spec).to_pandas()
    out = pd.DataFrame({"user_id": a["user_id"].astype(np.int64)})
    for t in CHURN_TYPES:
        out[f"n_{t}"] = a[f"n_{t}"].astype(np.int64)
    out["churned"] = (1 - a["post"]).astype(np.int64)
    return out.sort_values("user_id", ignore_index=True)
