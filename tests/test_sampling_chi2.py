"""Round-4 continuation: chi-square independence test."""

import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.tpch import priority_value_chi2


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_chi2_independent_is_zero(ray_session, tmp_path):
    d = tmp_path / "sf"
    # perfectly independent 2x3 design: every (priority, bucket) cell equal
    pri = ["1-URGENT"] * 30 + ["2-HIGH"] * 30
    vals = ([100.0] * 10 + [200_000.0] * 10 + [400_000.0] * 10) * 2
    _write(d, "orders", pa.table({
        "o_orderpriority": pa.array(pri, pa.string()),
        "o_totalprice": pa.array(vals),
    }))
    out = priority_value_chi2(str(d))
    assert out.iloc[0]["chi2"] == 0.0
    assert out.iloc[0]["dof"] == 2
    assert out.iloc[0]["n"] == 60


def test_chi2_dependent_is_large(ray_session, tmp_path):
    d = tmp_path / "sf"
    # perfect dependence: priority determines bucket
    pri = ["1-URGENT"] * 20 + ["2-HIGH"] * 20
    vals = [100.0] * 20 + [400_000.0] * 20
    _write(d, "orders", pa.table({
        "o_orderpriority": pa.array(pri, pa.string()),
        "o_totalprice": pa.array(vals),
    }))
    out = priority_value_chi2(str(d))
    assert out.iloc[0]["chi2"] == 40.0  # n * dof for a perfect 2x2 split
    assert out.iloc[0]["dof"] == 1
