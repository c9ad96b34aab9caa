"""Round-4 continuation: water-filling token budget, TPC-H Q15/Q17/Q6."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.tpch import (
    Q15_QUARTER,
    Q17_BRAND,
    q6_forecast_revenue,
    q15_top_supplier,
    q17_small_quantity_revenue,
    token_budget_allocation,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_token_budget_waterfills(ray_session, tmp_path):
    d = tmp_path / "sf"
    # capacities: a=2 tokens, b=4, c=10 -> total 16, budget 8.
    # level solve: sorted [2,4,10]; λ1 = 8/3 -> a (2) below -> keep all of a;
    # λ2 = (8-2)/2 = 3 -> b (4) >= 3 -> stop. alloc = [2, 3, 3].
    _write(d, "documents", pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["t t", "u u u u", "v v v v v v v v v v"],
                         pa.string()),
        "source": pa.array(["a", "b", "c"], pa.string()),
    }))
    out = token_budget_allocation(str(d)).set_index("source")
    assert out.loc["a", "capacity"] == 2 and out.loc["a", "allocated"] == 2.0
    assert out.loc["b", "allocated"] == 3.0
    assert out.loc["c", "allocated"] == 3.0
    assert abs(out["allocated"].sum() - 8.0) < 1e-9


def test_q15_keeps_ties(ray_session, tmp_path):
    d = tmp_path / "sf"
    lo = pd.Timestamp(Q15_QUARTER[0])
    _write(d, "lineitem", pa.table({
        "l_suppkey": pa.array([1, 2, 2, 3], pa.int64()),
        "l_extendedprice": pa.array([100.0, 60.0, 40.0, 50.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0]),
        "l_shipdate": pa.array([lo + pd.Timedelta(days=i) for i in range(4)],
                               pa.timestamp("us")),
    }))
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["s1", "s2", "s3"], pa.string()),
    }))
    out = q15_top_supplier(str(d))
    # suppliers 1 and 2 tie at 100 -> BOTH kept
    assert out["s_suppkey"].tolist() == [1, 2]
    assert out["total_revenue"].tolist() == [100.0, 100.0]


def test_q17_threshold_semantics(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "part", pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_brand": pa.array([Q17_BRAND, "Brand#9"], pa.string()),
    }))
    # part 1 quantities: 10, 10, 1 -> avg 7, cut 1.4 -> only qty 1 row kept
    # part 2 is the wrong brand -> ignored entirely
    _write(d, "lineitem", pa.table({
        "l_partkey": pa.array([1, 1, 1, 2], pa.int64()),
        "l_quantity": pa.array([10.0, 10.0, 1.0, 1.0]),
        "l_extendedprice": pa.array([5.0, 6.0, 70.0, 999.0]),
    }))
    out = q17_small_quantity_revenue(str(d))
    assert out.iloc[0]["avg_yearly"] == round(70.0 / 7.0, 4)


def test_q6_filter_band(ray_session, tmp_path):
    d = tmp_path / "sf"
    t96 = pd.Timestamp("1996-06-01")
    t95 = pd.Timestamp("1995-06-01")
    _write(d, "lineitem", pa.table({
        "l_extendedprice": pa.array([100.0, 100.0, 100.0, 100.0]),
        "l_discount": pa.array([0.06, 0.04, 0.06, 0.06]),
        "l_quantity": pa.array([10.0, 10.0, 30.0, 10.0]),
        "l_shipdate": pa.array([t96, t96, t96, t95], pa.timestamp("us")),
    }))
    out = q6_forecast_revenue(str(d))
    # only row 0 passes: in-year, discount in band, quantity < 24
    assert out.iloc[0]["revenue"] == 6.0
    assert out.iloc[0]["n_items"] == 1


def test_gini_uniform_and_concentrated(ray_session, tmp_path):
    from archivesspace_virgo_ray.pipelines.oracles.tpch import (
        customer_revenue_gini,
    )

    d = tmp_path / "sf"
    # perfectly equal: gini == 0
    _write(d, "orders", pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_totalprice": pa.array([10.0, 10.0, 10.0, 10.0]),
    }))
    out = customer_revenue_gini(str(d))
    assert out.iloc[0]["gini"] == 0.0
    assert out.iloc[0]["n_customers"] == 4
    # top-1% cut with n=4 -> ceil(0.04)=1 customer -> share 0.25
    assert out.iloc[0]["top1pct_share"] == 0.25

    d2 = tmp_path / "sf2"
    # one customer takes everything: gini -> (n-1)/n
    _write(d2, "orders", pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_totalprice": pa.array([0.0, 0.0, 0.0, 40.0]),
    }))
    out2 = customer_revenue_gini(str(d2))
    assert out2.iloc[0]["gini"] == 0.75
    assert out2.iloc[0]["top1pct_share"] == 1.0


def test_benford_digits(ray_session, tmp_path):
    import numpy as np

    from archivesspace_virgo_ray.pipelines.oracles.tpch import (
        benford_totalprice,
    )

    d = tmp_path / "sf"
    _write(d, "orders", pa.table({
        "o_totalprice": pa.array([123.4, 19.0, 1999.0, 25.0, 3456.0]),
    }))
    out = benford_totalprice(str(d)).set_index("digit")
    assert out.loc[1, "n"] == 3
    assert out.loc[2, "n"] == 1 and out.loc[3, "n"] == 1
    assert out.loc[1, "share"] == 0.6
    assert out.loc[1, "benford_p"] == round(np.log10(2.0), 6)
