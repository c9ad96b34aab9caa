"""Round-4 continuation: label-centroid cosine similarity matrix."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from archivesspace_virgo_ray.pipelines.oracles.ann import (
    label_centroid_similarity,
)


def _write(d, name, table):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))


def test_label_centroid_similarity_geometry(ray_session, tmp_path):
    d = tmp_path / "sf"
    # label 0 along +x, label 1 along +y (orthogonal), label 2 along -x
    X = np.array([[1, 0], [3, 0],      # centroid (2, 0)
                  [0, 2], [0, 4],      # centroid (0, 3)
                  [-5, 0], [-1, 0]],   # centroid (-3, 0)
                 dtype=np.float32)
    _write(d, "embeddings", pa.table({
        "vec_id": pa.array(range(6), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in X],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 0, 1, 1, 2, 2], pa.int32()),
    }))
    out = label_centroid_similarity(str(d)).set_index(["label_a", "label_b"])
    assert out.loc[(0, 1), "cos"] == 0.0
    assert out.loc[(0, 2), "cos"] == -1.0
    assert out.loc[(1, 2), "cos"] == 0.0
    assert len(out) == 3
