"""TPC-H-shaped relational oracles (lineitem/orders/... tables)."""

from __future__ import annotations

import os
import numpy as np
import pandas as pd
import ray.data

from ...functions.tokenize import batch_term_doc_tf
from .common import SESSION_BUCKETS, _docs


def cheapest_lineitem_per_order(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = (
            pd.util.hash_array(df["l_orderkey"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return df

    def argmin(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["l_orderkey", "l_extendedprice", "l_linenumber"],
                          kind="mergesort")
        w = g.drop_duplicates("l_orderkey", keep="first")
        return w[["l_orderkey", "l_linenumber", "l_extendedprice"]]

    out = (
        ds.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(argmin, batch_format="pandas")
        .to_pandas()
    )
    out["l_linenumber"] = out["l_linenumber"].astype(np.int64)
    return out.sort_values("l_orderkey", ignore_index=True)


def orders_per_customer_histogram(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq_

    n_customers = pq_.read_metadata(
        os.path.join(sf_dir, "customer.parquet")).num_rows
    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey"])

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby("o_custkey", as_index=False).size()
        c["__b__"] = (
            pd.util.hash_array(c["o_custkey"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return c

    def per_cust(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("o_custkey", as_index=False)["size"].sum()
        h = c.groupby("size", as_index=False).agg(
            n_customers=("o_custkey", "size"))
        return h.rename(columns={"size": "n_orders"})

    parts = (
        ds.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(per_cust, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("n_orders", as_index=False)["n_customers"].sum()
    # every customer with ≥1 order is counted exactly once across buckets
    zero = n_customers - int(out["n_customers"].sum())
    if zero > 0:
        out = pd.concat([pd.DataFrame({"n_orders": [0],
                                       "n_customers": [zero]}), out],
                        ignore_index=True)
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["n_customers"] = out["n_customers"].astype(np.int64)
    return out.sort_values("n_orders", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q18 (large-volume orders): aggregate-HAVING on the fact table, then
# join the rare winners back to their order/customer rows. Per-order sums
# ride the bounded bucket shuffle (never a per-order Ray group call); only
# orders past the threshold — the top ~percentile by construction — leave
# the reduce, so both join-backs are broadcast semi-joins, not shuffles.
# ---------------------------------------------------------------------------

Q18_MIN_QTY = 250.0


def q18_large_orders(sf_dir: str) -> pd.DataFrame:
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"],
    )

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False)["l_quantity"].sum()
        g["__b__"] = (
            pd.util.hash_array(g["l_orderkey"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return g

    def winners(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("l_orderkey", as_index=False)["l_quantity"].sum()
        return s[s["l_quantity"] > Q18_MIN_QTY]

    big = (
        li.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(winners, batch_format="pandas")
        .to_pandas()
    )
    okeys_ref = ray.put(set(big["l_orderkey"].tolist()))

    def pick_orders(df: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(okeys_ref)
        return df[df["o_orderkey"].isin(ks)]

    orders = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        )
        .map_batches(pick_orders, batch_format="pandas")
        .to_pandas()
    )
    ckeys_ref = ray.put(set(orders["o_custkey"].tolist()))

    def pick_cust(df: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(ckeys_ref)
        return df[df["c_custkey"].isin(ks)]

    cust = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name"],
        )
        .map_batches(pick_cust, batch_format="pandas")
        .to_pandas()
    )
    out = orders.merge(
        big.rename(columns={"l_orderkey": "o_orderkey"}), on="o_orderkey"
    ).merge(cust, left_on="o_custkey", right_on="c_custkey")
    out["sum_qty"] = out["l_quantity"].round().astype(np.int64)
    out["o_orderdate"] = out["o_orderdate"].dt.strftime("%Y-%m-%d")
    out["o_totalprice"] = out["o_totalprice"].round(4)
    out = out[["c_name", "c_custkey", "o_orderkey", "o_orderdate",
               "o_totalprice", "sum_qty"]]
    return out.sort_values("o_orderkey", ignore_index=True)


def part_supplier_variety(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate

    part = pq_.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).to_pandas()
    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_acctbal"],
    ).to_pandas()
    dims_ref = ray.put((
        dict(zip(part["p_partkey"], part["p_brand"])),
        dict(zip(part["p_partkey"], part["p_size"].astype(np.int64))),
        set(sup.loc[sup["s_acctbal"] < 0, "s_suppkey"].tolist()),
    ))

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        bmap, smap, bad = ray.get(dims_ref)
        df = df[~df["l_suppkey"].isin(bad)]
        out = pd.DataFrame({
            "p_brand": df["l_partkey"].map(bmap),
            "p_size": df["l_partkey"].map(smap).astype(np.int64),
            "l_suppkey": df["l_suppkey"].to_numpy(),
        }).drop_duplicates()
        out["one"] = np.int64(1)
        return out

    agg = tree_aggregate(
        li, ["p_brand", "p_size", "l_suppkey"], partial, {"one": "max"}
    ).to_pandas()
    out = agg.groupby(["p_brand", "p_size"], as_index=False).agg(
        supplier_cnt=("l_suppkey", "size"))
    out["p_size"] = out["p_size"].astype(np.int64)
    out["supplier_cnt"] = out["supplier_cnt"].astype(np.int64)
    return out.sort_values(
        ["supplier_cnt", "p_brand", "p_size"],
        ascending=[False, True, True], ignore_index=True)


def rollup_revenue(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate

    cust = pq_.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"]).to_pandas()
    ref = ray.put((dict(zip(cust["c_custkey"], cust["c_nationkey"])),
                   dict(zip(nation["n_nationkey"], nation["n_name"]))))

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cn, nn = ray.get(ref)
        out = pd.DataFrame({
            "n_name": df["o_custkey"].map(lambda c: nn[cn[c]]),
            "order_year": df["o_orderdate"].dt.year.astype(np.int64),
            "cents": np.round(df["o_totalprice"].to_numpy() * 100.0).astype(np.int64),
        })
        return out.groupby(["n_name", "order_year"], as_index=False).agg(
            revenue_cents=("cents", "sum"))

    fine = tree_aggregate(orders, ["n_name", "order_year"], partial,
                          {"revenue_cents": "sum"}).to_pandas()
    by_nation = fine.groupby("n_name", as_index=False).agg(
        revenue_cents=("revenue_cents", "sum"))
    by_nation["order_year"] = np.int64(-1)
    total = pd.DataFrame({"n_name": ["*ALL*"], "order_year": [np.int64(-1)],
                          "revenue_cents": [fine["revenue_cents"].sum()]})
    out = pd.concat([fine, by_nation, total], ignore_index=True)
    out["order_year"] = out["order_year"].astype(np.int64)
    out["revenue_cents"] = out["revenue_cents"].astype(np.int64)
    return out.sort_values(["n_name", "order_year"], ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q10-style returned-item report: revenue lost to returns per customer
# in one quarter, top 20. Shape: fact-side filter PUSHED TO THE READ (only
# 'R' rows ever leave parquet), per-orderkey partial aggregation shrinks the
# fact stream to <= |orders| rows BEFORE the one bucketed hash join with the
# windowed orders slice, then a bounded per-customer aggregation. The final
# customer/nation decoration reads only the 20 winning custkeys (pushdown
# isin filter), so the customer table never streams in full.
# ---------------------------------------------------------------------------

Q10_WINDOW = ("1996-01-01", "1996-04-01")


def q10_returned_items(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    from ...state.aggregates import tree_aggregate
    from ..joins import hash_join

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_returnflag") == "R"),
    )

    def per_order(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(rev=df["l_extendedprice"] * (1 - df["l_discount"]))
        out = df.groupby("l_orderkey", as_index=False).agg(
            revenue=("rev", "sum"), n_items=("rev", "size"))
        return out.rename(columns={"l_orderkey": "o_orderkey"})

    order_rev = tree_aggregate(li, ["o_orderkey"], per_order,
                               {"revenue": "sum", "n_items": "sum"})

    lo, hi = (pd.Timestamp(d) for d in Q10_WINDOW)
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
        filter=((pads.field("o_orderdate") >= lo.to_pydatetime())
                & (pads.field("o_orderdate") < hi.to_pydatetime())),
    )
    joined = hash_join(order_rev, orders, on="o_orderkey", n_buckets=16)

    def per_cust(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False).agg(
            revenue=("revenue", "sum"), n_items=("n_items", "sum"))

    agg = tree_aggregate(joined, ["o_custkey"], per_cust,
                         {"revenue": "sum", "n_items": "sum"}).to_pandas()
    agg["revenue"] = agg["revenue"].round(4)
    top = agg.sort_values(["revenue", "o_custkey"], ascending=[False, True],
                          kind="mergesort").head(20)

    import pyarrow.parquet as pq_

    keys = top["o_custkey"].astype("int64").tolist()
    cust = pq_.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=[("c_custkey", "in", keys)],
    ).to_pandas()
    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"]).to_pandas()
    cust = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    out = top.rename(columns={"o_custkey": "c_custkey"}).merge(
        cust[["c_custkey", "c_name", "n_name"]], on="c_custkey")
    out["c_custkey"] = out["c_custkey"].astype(np.int64)
    out["n_items"] = out["n_items"].astype(np.int64)
    out = out[["c_custkey", "c_name", "n_name", "revenue", "n_items"]]
    return out.sort_values(["revenue", "c_custkey"],
                           ascending=[False, True], kind="mergesort",
                           ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q14-style promotion effect: per ship-month, the revenue share of
# PROMO-type parts. part is the broadcast dimension (partkey→is_promo bit
# shipped once via ray.put); the fact pass pre-aggregates to one row per
# month per batch, so the tree merge moves O(months) rows.
# ---------------------------------------------------------------------------

Q14_YEAR = 1996


def q14_promo_revenue(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate

    part = pq_.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_type"]).to_pandas()
    promo_ref = ray.put(
        set(part.loc[part["p_type"] == "PROMO", "p_partkey"].tolist()))

    lo = pd.Timestamp(f"{Q14_YEAR}-01-01").to_pydatetime()
    hi = pd.Timestamp(f"{Q14_YEAR + 1}-01-01").to_pydatetime()
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=((pads.field("l_shipdate") >= lo)
                & (pads.field("l_shipdate") < hi)),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        promo = ray.get(promo_ref)
        rev = (df["l_extendedprice"] * (1 - df["l_discount"])).to_numpy()
        is_promo = df["l_partkey"].isin(promo).to_numpy()
        out = pd.DataFrame({
            "ship_month": df["l_shipdate"].dt.strftime("%Y-%m"),
            "promo_rev": np.where(is_promo, rev, 0.0),
            "total_rev": rev,
        })
        return out.groupby("ship_month", as_index=False).agg(
            promo_rev=("promo_rev", "sum"), total_rev=("total_rev", "sum"))

    agg = tree_aggregate(li, ["ship_month"], partial,
                         {"promo_rev": "sum", "total_rev": "sum"}).to_pandas()
    out = pd.DataFrame({
        "ship_month": agg["ship_month"],
        "promo_share_pct": np.round(
            100.0 * agg["promo_rev"] / agg["total_rev"], 6),
        "total_revenue": agg["total_rev"].round(2),
    })
    return out.sort_values("ship_month", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q19-style bracketed revenue: three OR'd predicate groups, each a
# conjunction over a part attribute (broadcast dim) and a lineitem range.
# The whole disjunction evaluates vectorized inside one fact pass; output is
# one row per bracket (revenue + matched-row count), merged by tree.
# ---------------------------------------------------------------------------

Q19_BRACKETS = (
    # (name, p_type, max p_size, qty lo, qty hi)
    ("small", "SMALL", 10, 1.0, 15.0),
    ("medium", "MEDIUM", 25, 10.0, 30.0),
    ("large", "LARGE", 50, 20.0, 50.0),
)


def q19_bracket_revenue(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate

    part = pq_.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_type", "p_size"]).to_pandas()
    dims_ref = ray.put((
        dict(zip(part["p_partkey"], part["p_type"])),
        dict(zip(part["p_partkey"], part["p_size"].astype(np.int64))),
    ))

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tmap, smap = ray.get(dims_ref)
        ptype = df["l_partkey"].map(tmap).to_numpy()
        psize = df["l_partkey"].map(smap).to_numpy(np.int64)
        qty = df["l_quantity"].to_numpy()
        rev = (df["l_extendedprice"] * (1 - df["l_discount"])).to_numpy()
        rows = []
        for name, typ, max_size, qlo, qhi in Q19_BRACKETS:
            m = (ptype == typ) & (psize <= max_size) & (qty >= qlo) & (qty <= qhi)
            rows.append((name, float(rev[m].sum()), int(m.sum())))
        return pd.DataFrame(rows, columns=["bracket", "revenue", "n_items"])

    agg = tree_aggregate(li, ["bracket"], partial,
                         {"revenue": "sum", "n_items": "sum"}).to_pandas()
    agg["revenue"] = agg["revenue"].round(4)
    agg["n_items"] = agg["n_items"].astype(np.int64)
    agg = agg[agg["n_items"] > 0]
    return agg.sort_values("bracket", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q22-style idle-balance report: CHURNED customers — no orders since
# the cutoff — whose balance beats the positive-balance average, counted per
# market segment. The global average is a broadcast SCALAR held in exact
# integer form (cents_sum, n) so the > comparison is integer arithmetic on
# both sides — no float-threshold flakiness. The recent-orders set is a
# broadcast sorted array anti-join (searchsorted per batch, and the order
# scan is date-pruned at the read); at 100 TB swap the broadcast for
# joins.hash_join(how='left') + null-filter, same downstream.
# ---------------------------------------------------------------------------

Q22_ACTIVE_SINCE = "2000-01-01"


def q22_idle_balance(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    from ...state.aggregates import tree_aggregate

    cust_path = os.path.join(sf_dir, "customer.parquet")

    def bal_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["c_acctbal"].to_numpy() * 100.0).astype(np.int64)
        pos = cents[cents > 0]
        return pd.DataFrame({"k": [0], "cents": [int(pos.sum())],
                             "n": [int(len(pos))]})

    bal = tree_aggregate(
        ray.data.read_parquet(cust_path, columns=["c_acctbal"]),
        ["k"], bal_partial, {"cents": "sum", "n": "sum"}).to_pandas()
    cents_sum, n_pos = int(bal["cents"].iloc[0]), int(bal["n"].iloc[0])

    cut = pd.Timestamp(Q22_ACTIVE_SINCE).to_pydatetime()
    have_orders = np.sort(np.asarray(
        ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"],
            filter=(pads.field("o_orderdate") >= cut),
        ).unique("o_custkey"),
        np.int64))
    have_ref = ray.put(have_orders)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        h = ray.get(have_ref)
        cents = np.round(df["c_acctbal"].to_numpy() * 100.0).astype(np.int64)
        # integer-exact "cents > avg_cents": cents * n_pos > cents_sum
        rich = cents * n_pos > cents_sum
        keys = df["c_custkey"].to_numpy(np.int64)
        pos = np.searchsorted(h, keys)
        ok = pos < len(h)
        has = np.zeros(len(keys), dtype=bool)
        if len(h):
            has[ok] = h[pos[ok]] == keys[ok]
        keep = rich & ~has
        out = pd.DataFrame({"c_mktsegment": df["c_mktsegment"].to_numpy()[keep],
                            "cents": cents[keep]})
        return out.groupby("c_mktsegment", as_index=False).agg(
            numcust=("cents", "size"), totacctbal_cents=("cents", "sum"))

    agg = tree_aggregate(
        ray.data.read_parquet(
            cust_path, columns=["c_custkey", "c_acctbal", "c_mktsegment"]),
        ["c_mktsegment"], pick,
        {"numcust": "sum", "totacctbal_cents": "sum"}).to_pandas()
    agg["numcust"] = agg["numcust"].astype(np.int64)
    agg["totacctbal_cents"] = agg["totacctbal_cents"].astype(np.int64)
    return agg.sort_values("c_mktsegment", ignore_index=True)


def customer_order_gaps(sf_dir: str) -> pd.DataFrame:
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_orderdate"])

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = (
            pd.util.hash_array(df["o_custkey"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return df

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort", ignore_index=True)
        cust = g["o_custkey"].to_numpy(np.int64)
        days = (g["o_orderdate"].astype("datetime64[s]").astype("int64")
                .to_numpy() // 86400)
        starts = np.flatnonzero(np.r_[True, cust[1:] != cust[:-1]])
        ends = np.r_[starts[1:], len(g)]
        keep = (ends - starts) >= 2
        s2, e2 = starts[keep], ends[keep]
        if not len(s2):
            return pd.DataFrame({
                "c_custkey": pd.Series(dtype=np.int64),
                "n_orders": pd.Series(dtype=np.int64),
                "avg_gap_days": pd.Series(dtype=np.float64),
                "max_gap_days": pd.Series(dtype=np.int64)})
        n_gaps = e2 - s2 - 1
        # consecutive-gap sums telescope: sum = last - first
        avg = np.round((days[e2 - 1] - days[s2]) / n_gaps, 6)
        # per-segment max gap, fully vectorized: mask cross-customer diffs
        # to -1 (real gaps are >= 0), then reduceat at segment starts — the
        # masked positions between kept segments can never win the max
        dd = np.where(cust[1:] == cust[:-1], np.diff(days), -1)
        mx = np.maximum.reduceat(dd, s2)
        return pd.DataFrame({
            "c_custkey": cust[s2], "n_orders": (e2 - s2).astype(np.int64),
            "avg_gap_days": avg, "max_gap_days": mx.astype(np.int64)})

    out = (
        orders.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(gaps, batch_format="pandas")
        .to_pandas()
    )
    for c in ("c_custkey", "n_orders", "max_gap_days"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("c_custkey", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q5-style local-supplier volume: the six-table star join. The one
# big×big edge (lineitem ⋈ windowed orders) goes through the bucketed hash
# join; every other table is a bounded dimension broadcast once via ray.put
# (nation/region always; supplier/customer maps here too — at 100 TB the
# customer map becomes a second hash_join, same downstream). The
# same-nation predicate evaluates vectorized inside the fact pass.
# ---------------------------------------------------------------------------

Q5_YEAR = 1996


Q5_REGION = "EUROPE"


def q5_local_supplier_volume(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate
    from ..joins import hash_join

    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq_.read_table(
        os.path.join(sf_dir, "region.parquet")).to_pandas()
    rkey = set(region.loc[region["r_name"] == Q5_REGION,
                          "r_regionkey"].tolist())
    in_region = set(
        nation.loc[nation["n_regionkey"].isin(rkey), "n_nationkey"].tolist())
    nname = dict(zip(nation["n_nationkey"], nation["n_name"]))
    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    cust = pq_.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"]).to_pandas()
    dims_ref = ray.put((
        dict(zip(sup["s_suppkey"], sup["s_nationkey"])),
        dict(zip(cust["c_custkey"], cust["c_nationkey"])),
        in_region, nname,
    ))

    lo = pd.Timestamp(f"{Q5_YEAR}-01-01").to_pydatetime()
    hi = pd.Timestamp(f"{Q5_YEAR + 1}-01-01").to_pydatetime()
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
        filter=((pads.field("o_orderdate") >= lo)
                & (pads.field("o_orderdate") < hi)),
    )
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    joined = hash_join(li, orders, on="o_orderkey", n_buckets=16)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        smap, cmap, reg, names = ray.get(dims_ref)
        sn = df["l_suppkey"].map(smap).to_numpy(np.int64)
        cn = df["o_custkey"].map(cmap).to_numpy(np.int64)
        keep = (sn == cn) & np.isin(sn, list(reg))
        rev = (df["l_extendedprice"] * (1 - df["l_discount"])).to_numpy()
        out = pd.DataFrame({
            "n_name": [names[int(v)] for v in sn[keep]],
            "revenue": rev[keep], "n_items": np.int64(1)})
        return out.groupby("n_name", as_index=False).agg(
            revenue=("revenue", "sum"), n_items=("n_items", "sum"))

    agg = tree_aggregate(joined, ["n_name"], partial,
                         {"revenue": "sum", "n_items": "sum"}).to_pandas()
    agg["revenue"] = agg["revenue"].round(4)
    agg["n_items"] = agg["n_items"].astype(np.int64)
    return agg.sort_values(["revenue", "n_name"], ascending=[False, True],
                           kind="mergesort", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q4-style order-priority count: orders in one quarter having EXISTS a
# late-shipping lineitem (l_shipdate > o_orderdate). The EXISTS semi-join:
# bucketed hash join of the (pushdown-pruned) lineitem scan with the
# windowed orders, predicate filter, then per-batch (orderkey, priority)
# dedup → orderkey-bucketed distinct → tiny per-priority sum. The distinct
# set never lands on one worker.
# ---------------------------------------------------------------------------

Q4_WINDOW = ("1996-07-01", "1996-10-01")


def q4_order_priority(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    from ...state.aggregates import tree_aggregate
    from ..joins import hash_join

    lo, hi = (pd.Timestamp(d) for d in Q4_WINDOW)
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=((pads.field("o_orderdate") >= lo.to_pydatetime())
                & (pads.field("o_orderdate") < hi.to_pydatetime())),
    )
    # any qualifying lineitem ships strictly after its order date, which is
    # >= the window's lower bound — pushdown prunes the fact scan
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
        filter=(pads.field("l_shipdate") > lo.to_pydatetime()),
    ).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    joined = hash_join(li, orders, on="o_orderkey", n_buckets=16)

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] > df["o_orderdate"]]
        out = df[["o_orderkey", "o_orderpriority"]].drop_duplicates()
        out = out.copy()
        out["__b__"] = (
            pd.util.hash_array(
                out["o_orderkey"].to_numpy(np.int64), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return out

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        w = g.drop_duplicates("o_orderkey")
        out = w.groupby("o_orderpriority", as_index=False).agg(
            order_count=("o_orderkey", "size"))
        return out

    parts = (
        joined.map_batches(dedup, batch_format="pandas")
        .groupby("__b__")
        .map_groups(count_distinct, batch_format="pandas")
    )

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        return df[["o_orderpriority", "order_count"]]

    agg = tree_aggregate(parts, ["o_orderpriority"], ident,
                         {"order_count": "sum"}).to_pandas()
    agg["order_count"] = agg["order_count"].astype(np.int64)
    return agg.sort_values("o_orderpriority", ignore_index=True)


# ---------------------------------------------------------------------------
# Co-purchase pair mining (market-basket self-join): top 20 part pairs by
# the number of orders containing both. The self-join happens INSIDE each
# orderkey hash bucket (per-order part lists are tiny, so the pair blowup
# is bounded), pair counts pre-aggregate per bucket, and the tree merge
# reduces over the pair domain — the fact table shuffles exactly once.
# ---------------------------------------------------------------------------

COPURCHASE_TOPN = 20


def copurchase_top_pairs(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey"])

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        u = df[["l_orderkey", "l_partkey"]].drop_duplicates().copy()
        u["__b__"] = (
            pd.util.hash_array(u["l_orderkey"].to_numpy(), categorize=False)
            % np.uint64(SESSION_BUCKETS)
        ).astype(np.int64)
        return u

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        u = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        m = u.merge(u, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        c = m.groupby(["l_partkey_x", "l_partkey_y"], as_index=False).size()
        return c.rename(columns={"l_partkey_x": "part_a",
                                 "l_partkey_y": "part_b",
                                 "size": "n_orders"})

    counts = (
        ds.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(pairs, batch_format="pandas")
    )

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        return df[["part_a", "part_b", "n_orders"]]

    agg = tree_aggregate(counts, ["part_a", "part_b"], ident,
                         {"n_orders": "sum"}).to_pandas()
    agg = agg.sort_values(["n_orders", "part_a", "part_b"],
                          ascending=[False, True, True], kind="mergesort")
    agg = agg.head(COPURCHASE_TOPN).reset_index(drop=True)
    for c in ("part_a", "part_b", "n_orders"):
        agg[c] = agg[c].astype(np.int64)
    return agg


# ---------------------------------------------------------------------------
# Chi-square independence test (order priority × order-value bucket): the
# contingency table is one facet-sized tree pass; the statistic is driver
# arithmetic over the tiny table. The "is this feature correlated with
# that label" screen of a data-curation loop.
# ---------------------------------------------------------------------------

CHI2_VALUE_EDGES = (170_000.0, 340_000.0)  # ~terciles of o_totalprice


def priority_value_chi2(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_orderpriority", "o_totalprice"])
    e0, e1 = CHI2_VALUE_EDGES

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["o_totalprice"].to_numpy(np.float64)
        bucket = np.where(v < e0, "low", np.where(v < e1, "mid", "high"))
        out = pd.DataFrame({"o_orderpriority": df["o_orderpriority"],
                            "bucket": bucket})
        g = out.groupby(["o_orderpriority", "bucket"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    cells = tree_aggregate(ds, ["o_orderpriority", "bucket"], partial,
                           {"n": "sum"}).to_pandas()
    total = float(cells["n"].sum())
    row = cells.groupby("o_orderpriority")["n"].sum()
    col = cells.groupby("bucket")["n"].sum()
    full = (
        pd.MultiIndex.from_product([sorted(row.index), sorted(col.index)],
                                   names=["o_orderpriority", "bucket"])
        .to_frame(index=False)
        .merge(cells, how="left").fillna({"n": 0})
    )
    e = (full["o_orderpriority"].map(row).to_numpy(np.float64)
         * full["bucket"].map(col).to_numpy(np.float64) / total)
    chi2 = float(((full["n"].to_numpy(np.float64) - e) ** 2 / e).sum())
    dof = (len(row) - 1) * (len(col) - 1)
    return pd.DataFrame({"chi2": [round(chi2, 6)],
                         "dof": [np.int64(dof)],
                         "n": [np.int64(total)]})


# ---------------------------------------------------------------------------
# Token-budget allocation across sources (the data-mixture "water-filling"
# step: give every source its proportional share of a token budget, capped
# at what the source actually has, redistributing the excess). One
# facet-sized token-count pass; the closed-form breakpoint solve (sort by
# capacity, cumulative sums, one λ) runs on the tiny per-source table and
# is reproduced exactly by the SQL window-function oracle.
# ---------------------------------------------------------------------------

BUDGET_FRACTION = 0.5  # allocate half the corpus's tokens


def token_budget_allocation(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = _docs(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        _t, docs, tfs, _d = batch_term_doc_tf(
            df["doc_id"].to_numpy(), df["text"].to_numpy())
        per_doc = pd.DataFrame({"doc_id": docs, "tokens": tfs}).groupby(
            "doc_id", as_index=False).sum()
        smap = dict(zip(df["doc_id"], df["source"]))
        per_doc["source"] = per_doc["doc_id"].map(smap)
        return per_doc.groupby("source", as_index=False)["tokens"].sum()

    cap = tree_aggregate(ds, ["source"], partial,
                         {"tokens": "sum"}).to_pandas()
    cap = cap.sort_values(["tokens", "source"], kind="mergesort",
                          ignore_index=True)
    c = cap["tokens"].to_numpy(np.float64)
    n = len(c)
    budget = BUDGET_FRACTION * c.sum()
    # water-filling with equal weights: sources with capacity below the
    # level λ keep everything; the rest get λ = (B - smaller caps) / count
    csum = np.cumsum(c)
    alloc = None
    for i in range(n):
        lam = (budget - (csum[i - 1] if i else 0.0)) / (n - i)
        if c[i] >= lam:
            alloc = np.minimum(c, lam)
            break
    if alloc is None:  # budget >= total capacity
        alloc = c.copy()
    out = pd.DataFrame({
        "source": cap["source"],
        "capacity": cap["tokens"].astype(np.int64),
        "allocated": np.round(alloc, 6),
    })
    return out.sort_values("source", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q15: top supplier(s) by quarterly revenue — the argmax-over-an-
# aggregate shape where EVERY tie at the max is kept. Per-supplier revenue
# is one fact pass with read-pushdown on the quarter; the max + tie filter
# runs on the supplier-sized table.
# ---------------------------------------------------------------------------

Q15_QUARTER = ("1996-01-01", "1996-04-01")


def q15_top_supplier(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate

    lo, hi = (pd.Timestamp(t).to_pydatetime() for t in Q15_QUARTER)
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=((pads.field("l_shipdate") >= lo)
                & (pads.field("l_shipdate") < hi)),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(rev=df["l_extendedprice"] * (1 - df["l_discount"]))
        return df.groupby("l_suppkey", as_index=False).agg(
            total_revenue=("rev", "sum"))

    agg = tree_aggregate(li, ["l_suppkey"], partial,
                         {"total_revenue": "sum"}).to_pandas()
    agg["total_revenue"] = agg["total_revenue"].round(4)
    best = agg["total_revenue"].max()
    top = agg[agg["total_revenue"] == best]
    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", top["l_suppkey"].astype("int64").tolist())],
    ).to_pandas()
    out = top.rename(columns={"l_suppkey": "s_suppkey"}).merge(
        sup, on="s_suppkey")
    out["s_suppkey"] = out["s_suppkey"].astype(np.int64)
    return out[["s_suppkey", "s_name", "total_revenue"]].sort_values(
        "s_suppkey", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q17: small-quantity revenue for one brand — the correlated scalar
# subquery (per-part average quantity) DECORRELATED into a broadcast map:
# pass 1 aggregates (sum, count) per part for the brand's parts only, pass
# 2 re-scans the brand's fact rows comparing each against 0.5 × its part's
# average. Both passes prune to the brand's partkeys at the read via an
# isin pushdown of the (dimension-sized) key list.
# ---------------------------------------------------------------------------

Q17_BRAND = "Brand#1"


def q17_small_quantity_revenue(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate

    part = pq_.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand"]).to_pandas()
    keys = part.loc[part["p_brand"] == Q17_BRAND, "p_partkey"] \
        .astype("int64").tolist()
    empty = pd.DataFrame({"avg_yearly": pd.Series([0.0])})
    if not keys:
        return empty
    flt = pads.field("l_partkey").isin(keys)
    li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("l_partkey", as_index=False).agg(
            s=("l_quantity", "sum"), n=("l_quantity", "size"))

    agg = tree_aggregate(
        ray.data.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                              columns=li_cols, filter=flt),
        ["l_partkey"], stats, {"s": "sum", "n": "sum"}).to_pandas()
    thr = dict(zip(agg["l_partkey"].astype(np.int64),
                   0.2 * agg["s"].to_numpy(np.float64)
                   / agg["n"].to_numpy(np.float64)))
    thr_ref = ray.put(thr)

    def small(df: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(thr_ref)
        cut = df["l_partkey"].map(t).to_numpy(np.float64)
        keep = df["l_quantity"].to_numpy(np.float64) < cut
        return pd.DataFrame({"k": [0],
                             "rev": [float(df["l_extendedprice"]
                                           .to_numpy()[keep].sum())]})

    tot = tree_aggregate(
        ray.data.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                              columns=li_cols, filter=flt),
        ["k"], small, {"rev": "sum"}).to_pandas()
    return pd.DataFrame({
        "avg_yearly": [round(float(tot["rev"].iloc[0]) / 7.0, 4)]})


def q6_forecast_revenue(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    from ...state.aggregates import tree_aggregate

    lo = pd.Timestamp("1996-01-01").to_pydatetime()
    hi = pd.Timestamp("1997-01-01").to_pydatetime()
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_extendedprice", "l_discount"],
        filter=((pads.field("l_shipdate") >= lo)
                & (pads.field("l_shipdate") < hi)
                & (pads.field("l_discount") >= 0.05)
                & (pads.field("l_discount") <= 0.07)
                & (pads.field("l_quantity") < 24.0)),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": [0],
            "revenue": [float((df["l_extendedprice"]
                               * df["l_discount"]).sum())],
            "n_items": [len(df)]})

    agg = tree_aggregate(ds, ["k"], partial,
                         {"revenue": "sum", "n_items": "sum"}).to_pandas()
    return pd.DataFrame({
        "revenue": [round(float(agg["revenue"].iloc[0]), 4)],
        "n_items": [np.int64(agg["n_items"].iloc[0])]})


def customer_revenue_gini(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
        out = pd.DataFrame({"o_custkey": df["o_custkey"].to_numpy(np.int64),
                            "cents": cents})
        return out.groupby("o_custkey", as_index=False)["cents"].sum()

    rev = tree_aggregate(ds, ["o_custkey"], partial,
                         {"cents": "sum"}).to_pandas()
    rev = rev.sort_values(["cents", "o_custkey"], kind="mergesort",
                          ignore_index=True)
    x = rev["cents"].to_numpy(np.float64)
    n = len(x)
    tot = x.sum()
    gini = (2.0 * np.sum(np.arange(1, n + 1) * x)) / (n * tot) - (n + 1) / n
    k = int(np.ceil(n / 100.0))
    top = rev.sort_values(["cents", "o_custkey"], ascending=[False, True],
                          kind="mergesort").head(k)
    return pd.DataFrame({
        "n_customers": [np.int64(n)],
        "total_cents": [np.int64(tot)],
        "gini": [round(float(gini), 6)],
        "top1pct_share": [round(float(top["cents"].sum()) / tot, 6)],
    })


def benford_totalprice(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = np.floor(df["o_totalprice"].to_numpy(np.float64)).astype(np.int64)
        d = pd.Series(v).astype(str).str[0].astype(np.int64)
        out = pd.DataFrame({"digit": d})
        g = out.groupby("digit", as_index=False).size()
        return g.rename(columns={"size": "n"})

    agg = tree_aggregate(ds, ["digit"], partial, {"n": "sum"}).to_pandas()
    agg = agg[agg["digit"] > 0]
    tot = float(agg["n"].sum())
    out = pd.DataFrame({
        "digit": agg["digit"].astype(np.int64),
        "n": agg["n"].astype(np.int64),
        "share": np.round(agg["n"].to_numpy(np.float64) / tot, 6),
        "benford_p": np.round(
            np.log10(1.0 + 1.0 / agg["digit"].to_numpy(np.float64)), 6),
    })
    return out.sort_values("digit", ignore_index=True)


def supplier_balance_pctrank(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq_

    sup = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey", "s_acctbal"])

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = (df["s_nationkey"].to_numpy(np.int64)
                       % SESSION_BUCKETS).astype(np.int64)
        return df

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _nk, grp in g.groupby("s_nationkey"):
            r = grp["s_acctbal"].rank(method="min").to_numpy(np.float64)
            n = len(grp)
            pct = (r - 1) / (n - 1) if n > 1 else np.zeros(n)
            out.append(pd.DataFrame({
                "s_suppkey": grp["s_suppkey"].to_numpy(np.int64),
                "s_nationkey": grp["s_nationkey"].to_numpy(np.int64),
                "pct_rank": np.round(pct, 6)}))
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame({
            "s_suppkey": pd.Series(dtype=np.int64),
            "s_nationkey": pd.Series(dtype=np.int64),
            "pct_rank": pd.Series(dtype=np.float64)})

    nation = pq_.read_table(os.path.join(sf_dir, "nation.parquet"),
                            columns=["n_nationkey", "n_name"]).to_pandas()
    out = (
        sup.map_batches(bucketize, batch_format="pandas")
        .groupby("__b__")
        .map_groups(rank, batch_format="pandas")
        .to_pandas()
    )
    out = out.merge(nation, left_on="s_nationkey", right_on="n_nationkey")
    return out[["s_suppkey", "n_name", "pct_rank"]].sort_values(
        "s_suppkey", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q7-style volume shipping: revenue flowing between two nations (either
# direction, supplier nation x customer nation) by ship year. The fact-side
# join is the bucketed big x big hash_join; nation lookups ride a broadcast
# (suppkey -> nationkey, custkey -> nationkey) exactly like Q5 — at true
# scale the customer map becomes a third hash_join, the shape is unchanged.
# ---------------------------------------------------------------------------

Q7_NATIONS = ("NATION_1", "NATION_2")


Q7_SHIP_WINDOW = ("1996-01-01", "1998-01-01")


def q7_volume_shipping(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate
    from ..joins import hash_join

    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet")).to_pandas()
    nname = dict(zip(nation["n_nationkey"], nation["n_name"]))
    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    cust = pq_.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"]).to_pandas()
    dims_ref = ray.put((
        dict(zip(sup["s_suppkey"], sup["s_nationkey"])),
        dict(zip(cust["c_custkey"], cust["c_nationkey"])),
        nname,
    ))
    pair = {nation.loc[nation["n_name"] == n, "n_nationkey"].iloc[0]
            for n in Q7_NATIONS}

    lo, hi = (pd.Timestamp(d).to_pydatetime() for d in Q7_SHIP_WINDOW)
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"])
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=((pads.field("l_shipdate") >= lo)
                & (pads.field("l_shipdate") < hi)),
    ).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    joined = hash_join(li, orders, on="o_orderkey", n_buckets=16)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        smap, cmap, names = ray.get(dims_ref)
        sn = df["l_suppkey"].map(smap).to_numpy(np.int64)
        cn = df["o_custkey"].map(cmap).to_numpy(np.int64)
        a, b = sorted(pair)
        keep = ((sn == a) & (cn == b)) | ((sn == b) & (cn == a))
        rev = (df["l_extendedprice"] * (1 - df["l_discount"])).to_numpy()
        out = pd.DataFrame({
            "supp_nation": [names[int(v)] for v in sn[keep]],
            "cust_nation": [names[int(v)] for v in cn[keep]],
            "l_year": df["l_shipdate"].dt.year.to_numpy(np.int64)[keep],
            "revenue": rev[keep],
        })
        return out.groupby(["supp_nation", "cust_nation", "l_year"],
                           as_index=False).agg(revenue=("revenue", "sum"))

    agg = tree_aggregate(joined, ["supp_nation", "cust_nation", "l_year"],
                         partial, {"revenue": "sum"}).to_pandas()
    if agg.empty:  # tiny samples can have no suppliers in the nation pair
        return pd.DataFrame({
            "supp_nation": pd.Series([], dtype=object),
            "cust_nation": pd.Series([], dtype=object),
            "l_year": pd.Series([], dtype=np.int64),
            "revenue": pd.Series([], dtype=np.float64)})
    agg["revenue"] = agg["revenue"].round(4)
    agg["l_year"] = agg["l_year"].astype(np.int64)
    return agg.sort_values(["supp_nation", "cust_nation", "l_year"],
                           kind="mergesort", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q8-style market share: of all PROMO-part volume sold to customers in
# one region over two order years, the share supplied by one nation, by year.
# TWO chained bucketed hash_joins (lineitem x part on partkey, then x orders
# on orderkey — the chained-join int-key canonicalization in joins.py keeps
# the second key exact); supplier/customer nation maps ride a broadcast.
# ---------------------------------------------------------------------------

Q8_REGION = "ASIA"


Q8_NATION = "NATION_2"


Q8_TYPE = "PROMO"


Q8_ORDER_WINDOW = ("1996-01-01", "1998-01-01")


def q8_market_share(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate
    from ..joins import hash_join

    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq_.read_table(
        os.path.join(sf_dir, "region.parquet")).to_pandas()
    rkey = set(region.loc[region["r_name"] == Q8_REGION,
                          "r_regionkey"].tolist())
    in_region = set(
        nation.loc[nation["n_regionkey"].isin(rkey), "n_nationkey"].tolist())
    share_nkey = int(
        nation.loc[nation["n_name"] == Q8_NATION, "n_nationkey"].iloc[0])
    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    cust = pq_.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"]).to_pandas()
    dims_ref = ray.put((
        dict(zip(sup["s_suppkey"], sup["s_nationkey"])),
        dict(zip(cust["c_custkey"], cust["c_nationkey"])),
        in_region, share_nkey,
    ))

    lo, hi = (pd.Timestamp(d).to_pydatetime() for d in Q8_ORDER_WINDOW)
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey"],
        filter=(pads.field("p_type") == Q8_TYPE),
    ).map_batches(
        lambda df: df.rename(columns={"p_partkey": "l_partkey"}),
        batch_format="pandas",
    )
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"])
    li_part = hash_join(li, part, on="l_partkey", n_buckets=16).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=((pads.field("o_orderdate") >= lo)
                & (pads.field("o_orderdate") < hi)),
    )
    joined = hash_join(li_part, orders, on="o_orderkey", n_buckets=16)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        smap, cmap, reg, share = ray.get(dims_ref)
        cn = df["o_custkey"].map(cmap).to_numpy(np.int64)
        keep = np.isin(cn, list(reg))
        sn = df["l_suppkey"].map(smap).to_numpy(np.int64)[keep]
        vol = (df["l_extendedprice"]
               * (1 - df["l_discount"])).to_numpy()[keep]
        out = pd.DataFrame({
            "o_year": df["o_orderdate"].dt.year.to_numpy(np.int64)[keep],
            "num": np.where(sn == share, vol, 0.0),
            "den": vol,
        })
        return out.groupby("o_year", as_index=False).agg(
            num=("num", "sum"), den=("den", "sum"))

    agg = tree_aggregate(joined, ["o_year"], partial,
                         {"num": "sum", "den": "sum"}).to_pandas()
    out = pd.DataFrame({
        "o_year": agg["o_year"].astype(np.int64),
        "mkt_share": np.round(agg["num"].to_numpy(np.float64)
                              / agg["den"].to_numpy(np.float64), 6),
    })
    return out.sort_values("o_year", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q9-style product-type profit by (supplier nation, order year). The
# test tables carry no partsupp, so supply cost is proxied as
# 0.5 * p_retailprice * l_quantity — the join/aggregate SHAPE (two chained
# fact joins + nation map + two-level group) is Q9's; only the cost column
# differs, and the oracle applies the identical formula.
# ---------------------------------------------------------------------------

Q9_NAME_SUBSTR = "red"


Q9_COST_FACTOR = 0.5


def q9_profit_by_nation_year(sf_dir: str) -> pd.DataFrame:
    import pyarrow.compute as pc_
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate
    from ..joins import hash_join

    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet")).to_pandas()
    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    nname = dict(zip(nation["n_nationkey"], nation["n_name"]))
    dims_ref = ray.put((dict(zip(sup["s_suppkey"], sup["s_nationkey"])),
                        nname))

    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_retailprice"],
    ).map_batches(
        lambda t: t.filter(pc_.match_substring(t["p_name"], Q9_NAME_SUBSTR))
        .drop_columns(["p_name"])
        .rename_columns(["l_partkey", "p_retailprice"]),
        batch_format="pyarrow",
    )
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"])
    li_part = hash_join(li, part, on="l_partkey", n_buckets=16).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"])
    joined = hash_join(li_part, orders, on="o_orderkey", n_buckets=16)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        smap, names = ray.get(dims_ref)
        sn = df["l_suppkey"].map(smap).to_numpy(np.int64)
        profit = (df["l_extendedprice"] * (1 - df["l_discount"])
                  - Q9_COST_FACTOR * df["p_retailprice"] * df["l_quantity"]
                  ).to_numpy()
        out = pd.DataFrame({
            "n_name": [names[int(v)] for v in sn],
            "o_year": df["o_orderdate"].dt.year.to_numpy(np.int64),
            "profit": profit,
        })
        return out.groupby(["n_name", "o_year"], as_index=False).agg(
            profit=("profit", "sum"))

    agg = tree_aggregate(joined, ["n_name", "o_year"], partial,
                         {"profit": "sum"}).to_pandas()
    agg["profit"] = agg["profit"].round(4)
    agg["o_year"] = agg["o_year"].astype(np.int64)
    return agg.sort_values(["n_name", "o_year"],
                           ascending=[True, False],
                           kind="mergesort", ignore_index=True)


# ---------------------------------------------------------------------------
# TPC-H Q2-style minimum-cost supplier: for every part of one size, the
# supplier(s) achieving the minimum observed unit price (extendedprice /
# quantity — the lineitem-derived stand-in for the missing partsupp
# supplycost). Correlated-min via orderkey-free partkey bucketing: all rows
# of a part land in one hash bucket, the per-group argmin is exact, and the
# equality join back to the winners never leaves the group. Unit prices are
# raw IEEE doubles on both sides — same dividend/divisor, same quotient —
# so min/equality match bit-for-bit; only the published column is rounded.
# ---------------------------------------------------------------------------

Q2_SIZE = 15


def q2_min_cost_supplier(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ..joins import hash_join

    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet")).to_pandas()
    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet")).to_pandas()
    nname = dict(zip(nation["n_nationkey"], nation["n_name"]))
    sup_ref = ray.put({
        int(r.s_suppkey): (r.s_name, float(r.s_acctbal),
                           nname[int(r.s_nationkey)])
        for r in sup.itertuples()})

    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey"],
        filter=(pads.field("p_size") == Q2_SIZE),
    ).map_batches(
        lambda df: df.rename(columns={"p_partkey": "l_partkey"}),
        batch_format="pandas",
    )
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"])
    joined = hash_join(li, part, on="l_partkey", n_buckets=16)

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "p_partkey": df["l_partkey"].to_numpy(np.int64),
            "s_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "unit": (df["l_extendedprice"]
                     / df["l_quantity"]).to_numpy(np.float64),
        })
        out["__b__"] = (
            pd.util.hash_array(out["p_partkey"].to_numpy(np.int64),
                               categorize=False)
            % np.uint64(SESSION_BUCKETS)).astype(np.int64)
        return out

    def argmin(g: pd.DataFrame) -> pd.DataFrame:
        mn = g.groupby("p_partkey")["unit"].transform("min")
        w = g[g["unit"] == mn]
        return (w[["p_partkey", "s_suppkey", "unit"]]
                .drop_duplicates(["p_partkey", "s_suppkey"]))

    winners = (
        joined.map_batches(bucketed, batch_format="pandas")
        .groupby("__b__")
        .map_groups(argmin, batch_format="pandas")
    ).to_pandas()

    smap = ray.get(sup_ref)
    info = [smap[int(k)] for k in winners["s_suppkey"]]
    out = pd.DataFrame({
        "s_acctbal": [round(v[1], 2) for v in info],
        "s_name": [v[0] for v in info],
        "n_name": [v[2] for v in info],
        "p_partkey": winners["p_partkey"].astype(np.int64),
        "s_suppkey": winners["s_suppkey"].astype(np.int64),
        "min_price": winners["unit"].round(6),
    })
    return out.sort_values(
        ["s_acctbal", "n_name", "s_name", "p_partkey", "s_suppkey"],
        ascending=[False, True, True, True, True],
        kind="mergesort", ignore_index=True).head(100)


# ---------------------------------------------------------------------------
# TPC-H Q11-style important parts: per-part supply value from one nation's
# suppliers, filtered by a GLOBAL scalar threshold. The threshold is a
# fraction of the MAX part value (not the sum): max is summation-order-
# independent, so the broadcast scalar is bit-identical no matter how the
# distributed partials merged — a sum-based threshold could flip a boundary
# part between engines on the last ulp. Per-part values round to 4 dp
# BEFORE the max/filter so both sides cut on the same grid.
# ---------------------------------------------------------------------------

Q11_NATION = "NATION_7"


Q11_FRACTION = 0.2


def q11_important_parts(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate

    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet")).to_pandas()
    nkey = int(
        nation.loc[nation["n_name"] == Q11_NATION, "n_nationkey"].iloc[0])
    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    skeys = ray.put(set(
        sup.loc[sup["s_nationkey"] == nkey, "s_suppkey"].astype(int)))

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        keep_sup = ray.get(skeys)
        m = df["l_suppkey"].isin(keep_sup).to_numpy()
        out = pd.DataFrame({
            "p_partkey": df["l_partkey"].to_numpy(np.int64)[m],
            "value": (df["l_extendedprice"]
                      * df["l_quantity"]).to_numpy()[m],
        })
        return out.groupby("p_partkey", as_index=False).agg(
            value=("value", "sum"))

    pv = tree_aggregate(li, ["p_partkey"], partial, {"value": "sum"})
    pv = pv.map_batches(
        lambda df: df.assign(value=df["value"].round(4)),
        batch_format="pandas")
    mx = pv.max("value")
    if mx is None:  # no suppliers from the nation in a tiny sample
        return pd.DataFrame({"p_partkey": pd.Series([], dtype=np.int64),
                             "value": pd.Series([], dtype=np.float64)})
    thr = float(mx) * Q11_FRACTION
    # per-block partial top-100 (rounded-value desc, partkey tiebreak), then
    # one driver merge of <=100-row blocks — the filtered table never lands
    # whole on the driver
    tops = pv.map_batches(
        lambda df: df[df["value"] > thr]
        .sort_values(["value", "p_partkey"], ascending=[False, True])
        .head(100),
        batch_format="pandas").to_pandas()
    out = tops.sort_values(["value", "p_partkey"], ascending=[False, True],
                           kind="mergesort", ignore_index=True).head(100)
    out["p_partkey"] = out["p_partkey"].astype(np.int64)
    return out[["p_partkey", "value"]]


# ---------------------------------------------------------------------------
# TPC-H Q21-style waiting suppliers: on finished multi-supplier orders, the
# supplier who was the ONLY one to ship late (> 60 days after the order
# date), counted per supplier. The per-order EXISTS / NOT-EXISTS pair
# collapses to one bucketed pass: hash(orderkey) buckets keep every order's
# lineitems in one group, and the group computes (distinct suppliers,
# distinct late suppliers, min late supplier) vectorized.
# ---------------------------------------------------------------------------

Q21_LATE_DAYS = 60


def q21_waiting_suppliers(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ...state.aggregates import tree_aggregate
    from ..joins import hash_join

    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"]).to_pandas()
    sname = ray.put(dict(zip(sup["s_suppkey"].astype(int), sup["s_name"])))

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"],
        filter=(pads.field("o_orderstatus") == "F"))
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    joined = hash_join(li, orders, on="o_orderkey", n_buckets=16)

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        late = ((df["l_shipdate"] - df["o_orderdate"]).dt.days
                > Q21_LATE_DAYS)
        out = pd.DataFrame({
            "o_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "late": late.to_numpy(),
        })
        out["__b__"] = (
            pd.util.hash_array(out["o_orderkey"].to_numpy(np.int64),
                               categorize=False)
            % np.uint64(SESSION_BUCKETS)).astype(np.int64)
        return out

    def lone_late(g: pd.DataFrame) -> pd.DataFrame:
        nsupp = g.groupby("o_orderkey")["l_suppkey"].nunique()
        lt = g[g["late"]]
        if lt.empty:
            return pd.DataFrame({"s_suppkey": pd.Series([], dtype=np.int64),
                                 "numwait": pd.Series([], dtype=np.int64)})
        per = lt.groupby("o_orderkey")["l_suppkey"].agg(["nunique", "min"])
        ok = per.index[(per["nunique"] == 1)
                       & (nsupp.reindex(per.index) >= 2)]
        w = per.loc[ok, "min"].astype(np.int64)
        out = w.value_counts().rename_axis("s_suppkey").reset_index(
            name="numwait")
        out["numwait"] = out["numwait"].astype(np.int64)
        return out

    parts = (
        joined.map_batches(bucketed, batch_format="pandas")
        .groupby("__b__")
        .map_groups(lone_late, batch_format="pandas")
    )

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        return df[["s_suppkey", "numwait"]]

    agg = tree_aggregate(parts, ["s_suppkey"], ident,
                         {"numwait": "sum"}).to_pandas()
    names = ray.get(sname)
    out = pd.DataFrame({
        "s_name": [names[int(k)] for k in agg["s_suppkey"]],
        "numwait": agg["numwait"].astype(np.int64),
    })
    return out.sort_values(["numwait", "s_name"], ascending=[False, True],
                           kind="mergesort", ignore_index=True).head(20)


def orders_monthly_growth(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "month": df["o_orderdate"].dt.to_period("M").dt.to_timestamp(),
            "revenue": df["o_totalprice"].to_numpy(np.float64),
        })
        return out.groupby("month", as_index=False).agg(
            revenue=("revenue", "sum"))

    m = tree_aggregate(ds, ["month"], partial,
                       {"revenue": "sum"}).to_pandas()
    m = m.sort_values("month", ignore_index=True)
    m["revenue"] = m["revenue"].round(4)
    prev = m["revenue"].shift(1)
    growth = (m["revenue"] - prev) / prev
    out = pd.DataFrame({
        "month": m["month"],
        "revenue": m["revenue"],
        "mom_growth": np.round(growth.to_numpy(np.float64), 6),
    })
    # the first month has no predecessor — dropped on both sides
    return out[prev.notna().to_numpy()].reset_index(drop=True)


# ---------------------------------------------------------------------------
# TPC-H Q20-style dominant suppliers: suppliers who shipped MORE THAN HALF
# of a matching part's total shipped quantity in one year (the
# partsupp-availqty test re-expressed over the lineitem-derived supply
# relation). Both aggregation levels — per-(part, supplier) and per-part —
# key on partkey, so ONE hash-bucket shuffle computes numerator and
# denominator in the same group with no second exchange; quantities are
# exact integers (l_quantity is whole-valued), so share > 0.5 compares
# 2*sup_qty > part_qty in int64 with no float boundary at all.
# ---------------------------------------------------------------------------

Q20_NAME_SUBSTR = "blue"


Q20_WINDOW = ("1997-01-01", "1997-07-01")


def q20_dominant_suppliers(sf_dir: str) -> pd.DataFrame:
    import pyarrow.compute as pc_
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ..joins import hash_join

    sup = pq_.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"]).to_pandas()
    sname = ray.put(dict(zip(sup["s_suppkey"].astype(int), sup["s_name"])))

    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name"],
    ).map_batches(
        lambda t: t.filter(pc_.match_substring(t["p_name"], Q20_NAME_SUBSTR))
        .drop_columns(["p_name"])
        .rename_columns(["l_partkey"]),
        batch_format="pyarrow",
    )
    lo, hi = (pd.Timestamp(d).to_pydatetime() for d in Q20_WINDOW)
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_quantity"],
        filter=((pads.field("l_shipdate") >= lo)
                & (pads.field("l_shipdate") < hi)),
    )
    joined = hash_join(li, part, on="l_partkey", n_buckets=16)

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "p_partkey": df["l_partkey"].to_numpy(np.int64),
            "s_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "qty": df["l_quantity"].to_numpy(np.float64).astype(np.int64),
        })
        out["__b__"] = (
            pd.util.hash_array(out["p_partkey"].to_numpy(np.int64),
                               categorize=False)
            % np.uint64(SESSION_BUCKETS)).astype(np.int64)
        return out

    def dominant(g: pd.DataFrame) -> pd.DataFrame:
        ps = g.groupby(["p_partkey", "s_suppkey"], as_index=False).agg(
            sup_qty=("qty", "sum"))
        tot = g.groupby("p_partkey")["qty"].sum()
        ps["part_qty"] = ps["p_partkey"].map(tot).astype(np.int64)
        w = ps[2 * ps["sup_qty"] > ps["part_qty"]]
        out = w[["s_suppkey"]].drop_duplicates()
        return out

    winners = (
        joined.map_batches(bucketed, batch_format="pandas")
        .groupby("__b__")
        .map_groups(dominant, batch_format="pandas")
    ).to_pandas()
    if winners.empty or "s_suppkey" not in winners.columns:
        return pd.DataFrame({"s_name": pd.Series([], dtype=object)})
    winners = winners.drop_duplicates()
    names = ray.get(sname)
    out = pd.DataFrame({
        "s_name": sorted({names[int(k)] for k in winners["s_suppkey"]})})
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# TPC-H Q12-style shipping-delay audit: each order's WORST lineitem delay
# (max ship lag in days), bucketed late/ontime, counted by high/low order
# priority. Per-order max rides the same hash(orderkey) bucketing as Q21;
# day diffs are exact integers so no float contract is needed.
# ---------------------------------------------------------------------------

Q12_LATE_DAYS = 45


Q12_HIGH = ("1-URGENT", "2-HIGH")


def q12_priority_by_delay(sf_dir: str) -> pd.DataFrame:
    from ...state.aggregates import tree_aggregate
    from ..joins import hash_join

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    ).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
    )
    joined = hash_join(li, orders, on="o_orderkey", n_buckets=16)

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "o_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "delay": (df["l_shipdate"]
                      - df["o_orderdate"]).dt.days.to_numpy(np.int64),
            "high": df["o_orderpriority"].isin(Q12_HIGH).to_numpy(),
        })
        out["__b__"] = (
            pd.util.hash_array(out["o_orderkey"].to_numpy(np.int64),
                               categorize=False)
            % np.uint64(SESSION_BUCKETS)).astype(np.int64)
        return out

    def per_order(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("o_orderkey").agg(
            delay=("delay", "max"), high=("high", "first"))
        out = pd.DataFrame({
            "delay_bucket": np.where(per["delay"] > Q12_LATE_DAYS,
                                     "late", "ontime"),
            "priority_class": np.where(per["high"], "high", "low"),
            "order_count": np.int64(1),
        })
        return out.groupby(["delay_bucket", "priority_class"],
                           as_index=False).agg(
            order_count=("order_count", "sum"))

    parts = (
        joined.map_batches(bucketed, batch_format="pandas")
        .groupby("__b__")
        .map_groups(per_order, batch_format="pandas")
    )

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        return df[["delay_bucket", "priority_class", "order_count"]]

    agg = tree_aggregate(parts, ["delay_bucket", "priority_class"], ident,
                         {"order_count": "sum"}).to_pandas()
    agg["order_count"] = agg["order_count"].astype(np.int64)
    return agg.sort_values(["delay_bucket", "priority_class"],
                           kind="mergesort", ignore_index=True)
