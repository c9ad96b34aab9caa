"""Round-4 continuation: embedding label-outlier mining."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.ann import (
    embedding_label_outliers,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_label_outliers_planted(ray_session, tmp_path):
    d = tmp_path / "sf"
    rng = np.random.default_rng(5)
    # label 0: tight blob at origin + one planted far point (vec 99)
    X = rng.standard_normal((30, 4)) * 0.01
    X[29] = [50.0, 0, 0, 0]
    ids = list(range(29)) + [99]
    _write(d, "embeddings", pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in X],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * 30, pa.int32()),
    }))
    out = embedding_label_outliers(str(d))
    assert len(out) == 3
    assert out.iloc[0]["vec_id"] == 99 and out.iloc[0]["rank"] == 1
    assert out["label"].unique().tolist() == [0]
    # ranks are 1..3 and distances non-increasing
    assert out["rank"].tolist() == [1, 2, 3]
    assert out["dist2"].is_monotonic_decreasing


