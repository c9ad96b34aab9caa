"""Round-4 additions: Q18 large orders, Q16-style supplier variety,
distributed covariance / PCA from sufficient statistics."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.ann import (
    embedding_covariance,
    pca_top_component,
)
from archivesspace_virgo_ray.pipelines.oracles.tpch import (
    Q18_MIN_QTY,
    part_supplier_variety,
    q18_large_orders,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_q18_planted_threshold(ray_session, tmp_path):
    d = tmp_path / "sf"
    # order 1: qty 260 (over), order 2: qty 100 (under), order 3: 251 (over)
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], pa.int64()),
        "l_quantity": pa.array([130.0, 130.0, 100.0, 251.0]),
    }))
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([10, 11, 10], pa.int64()),
        "o_orderdate": pa.array(
            [pd.Timestamp("1995-01-02")] * 3, pa.timestamp("us")),
        "o_totalprice": pa.array([1000.5, 2.0, 3.25]),
    }))
    _write(d, "customer", pa.table({
        "c_custkey": pa.array([10, 11], pa.int64()),
        "c_name": pa.array(["alice", "bob"], pa.string()),
    }))
    out = q18_large_orders(str(d))
    assert out["o_orderkey"].tolist() == [1, 3]
    assert out["sum_qty"].tolist() == [260, 251]
    assert out["c_name"].tolist() == ["alice", "alice"]
    assert out["o_orderdate"].tolist() == ["1995-01-02", "1995-01-02"]
    assert Q18_MIN_QTY == 250.0  # SQL literal is formatted from this


def test_part_supplier_variety_excludes_blacklist(ray_session, tmp_path):
    d = tmp_path / "sf"
    _write(d, "part", pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_brand": pa.array(["B1", "B1"], pa.string()),
        "p_size": pa.array([5, 9], pa.int32()),
    }))
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array([100, 200, 300], pa.int64()),
        "s_acctbal": pa.array([10.0, -5.0, 3.0]),
    }))
    # part 1 seen from suppliers 100, 200(bad), 300 (dup row collapses);
    # part 2 only from the bad supplier -> (B1, 9) absent entirely
    _write(d, "lineitem", pa.table({
        "l_partkey": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "l_suppkey": pa.array([100, 200, 300, 300, 200], pa.int64()),
    }))
    out = part_supplier_variety(str(d))
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["p_brand"], r["p_size"], r["supplier_cnt"]) == ("B1", 5, 2)


def _write_embeddings(d, X, labels=None):
    n = len(X)
    _write(d, "embeddings", pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in X],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * n if labels is None else labels, pa.int32()),
    }))


def test_covariance_matches_numpy(ray_session, tmp_path):
    d = tmp_path / "sf"
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 3)).astype(np.float32)
    _write_embeddings(d, X)
    out = embedding_covariance(str(d))
    C = np.cov(X.astype(np.float64).T, bias=True)
    got = np.zeros((3, 3))
    got[out["i"], out["j"]] = out["cov"]
    iu, ju = np.triu_indices(3)
    assert np.allclose(got[iu, ju], C[iu, ju], atol=2e-6)
    assert len(out) == 6  # upper triangle incl diagonal


def test_pca_finds_dominant_axis(ray_session, tmp_path):
    d = tmp_path / "sf"
    rng = np.random.default_rng(3)
    # variance 25 along axis 1, ~0.01 elsewhere
    X = rng.standard_normal((60, 4)) * 0.1
    X[:, 1] += rng.standard_normal(60) * 5.0
    _write_embeddings(d, X.astype(np.float32))
    out = pca_top_component(str(d)).set_index("dim")
    loadings = out.loc[[0, 1, 2, 3], "loading"].to_numpy()
    assert abs(abs(loadings[1]) - 1.0) < 0.02
    assert np.all(np.abs(loadings[[0, 2, 3]]) < 0.1)
    eig = out.loc[-1, "loading"]
    v = np.var(X[:, 1])  # population variance of the dominant axis
    assert abs(eig - v) / v < 0.05


def test_kmeans_matches_direct_lloyd(ray_session, tmp_path):
    from archivesspace_virgo_ray.pipelines.oracles.ann import (
        KMEANS_ITERS,
        KMEANS_K,
        kmeans_clusters,
    )

    d = tmp_path / "sf"
    rng = np.random.default_rng(11)
    # 3 well-separated blobs in 5-D, 60 points
    centers = np.array([[0.0] * 5, [10.0] * 5, [-10.0] * 5])
    X = np.vstack([c + rng.standard_normal((20, 5)) for c in centers])
    X = X.astype(np.float32)
    _write_embeddings(d, X)
    out = kmeans_clusters(str(d)).set_index("vec_id")["cluster"]

    # direct Lloyd reference with the same init / iteration count
    Xd = X.astype(np.float64)
    C = Xd[:KMEANS_K].copy()
    cids = np.arange(KMEANS_K)
    for _ in range(KMEANS_ITERS):
        d2 = ((Xd[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        lab = cids[np.argmin(d2, axis=1)]
        keep = sorted(set(lab.tolist()))
        C = np.stack([Xd[lab == c].mean(axis=0) for c in keep])
        cids = np.asarray(keep)
    d2 = ((Xd[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    ref = cids[np.argmin(d2, axis=1)]
    assert (out.to_numpy() == ref).all()
    # blob members agree with each other
    assert out.iloc[25] == out.iloc[35] and out.iloc[45] == out.iloc[55]


def test_rollup_revenue_levels(ray_session, tmp_path):
    from archivesspace_virgo_ray.pipelines.oracles.tpch import rollup_revenue

    d = tmp_path / "sf"
    _write(d, "customer", pa.table({
        "c_custkey": pa.array([1, 2], pa.int64()),
        "c_nationkey": pa.array([0, 1], pa.int32()),
    }))
    _write(d, "nation", pa.table({
        "n_nationkey": pa.array([0, 1], pa.int32()),
        "n_name": pa.array(["FR", "US"], pa.string()),
    }))
    _write(d, "orders", pa.table({
        "o_custkey": pa.array([1, 1, 2], pa.int64()),
        "o_orderdate": pa.array([pd.Timestamp("1995-03-01"),
                                 pd.Timestamp("1996-07-01"),
                                 pd.Timestamp("1995-05-05")], pa.timestamp("us")),
        "o_totalprice": pa.array([10.00, 20.50, 5.25]),
    }))
    out = rollup_revenue(str(d)).set_index(["n_name", "order_year"])
    assert out.loc[("FR", 1995), "revenue_cents"] == 1000
    assert out.loc[("FR", 1996), "revenue_cents"] == 2050
    assert out.loc[("FR", -1), "revenue_cents"] == 3050
    assert out.loc[("US", -1), "revenue_cents"] == 525
    assert out.loc[("*ALL*", -1), "revenue_cents"] == 3575
    assert len(out) == 6
