"""Round-4 continuation: grouped MAD."""

import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.events import value_mad_by_type


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_mad_planted(ray_session, tmp_path):
    d = tmp_path / "sf"
    # type A: values 1..9 -> median 5, |dev| = {0,1,1,2,2,3,3,4,4} -> mad 2
    vals = [float(v) for v in range(1, 10)] + [10.0, 10.0, 40.0]
    types = ["A"] * 9 + ["B"] * 3
    _write(d, "events", pa.table({
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(vals),
    }))
    out = value_mad_by_type(str(d)).set_index("event_type")
    assert out.loc["A", "median"] == 5.0
    assert out.loc["A", "mad"] == 2.0
    assert out.loc["B", "median"] == 10.0
    assert out.loc["B", "mad"] == 0.0


