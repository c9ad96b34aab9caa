"""Node-affinity / placement hints for the engine's pool actors and
segment-rewrite tasks.

On a real multi-node cluster the shard-pinned ``ShardWorker`` actors should
land on the node that holds their shards' segment files (segment reads are
the pool's cold-start cost, and NVMe-local beats cross-node every time),
and the segment-rewrite tasks of ``merge_segments`` / ``tiered_merge``
should co-locate with the generations they rewrite.
The sandbox is single-node, so the DEFAULT is no hint at all — behavior is
byte-identical to the unhinted engine — and a deployment opts in with::

    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy
    from archivesspace_virgo_ray.index import placement

    def pin(index_dir, shard_ids):
        node = my_shard_to_node_map[min(shard_ids)]
        return {"scheduling_strategy":
                    NodeAffinitySchedulingStrategy(node, soft=True),
                "num_cpus": 1}

    placement.set_pool_placement(pin)

The hook returns plain Ray actor options (``scheduling_strategy``,
``num_cpus``, ``resources`` — anything ``.options()`` accepts), merged over
the engine's defaults. ``soft=True`` is strongly recommended: a hard
affinity to a dead node would wedge the pool's respawn-on-actor-death
recovery path.

Pool staleness detection is orthogonal: ``get_pool`` fingerprints the index
dir and rebuilds the pool after any mutation regardless of placement, and a
rebuilt pool re-invokes the hook (tested in test_placement.py).
"""

from __future__ import annotations

from typing import Callable, Optional

_pool_fn: Optional[Callable[[str, list], dict]] = None
_merge_fn: Optional[Callable[[str], dict]] = None


def set_pool_placement(fn: Optional[Callable[[str, list], dict]]) -> None:
    """``fn(index_dir, shard_ids) -> actor options dict`` for every
    ``ShardWorker`` in a ``QueryPool`` (federated pools included — they are
    per-member ``QueryPool``s). ``None`` resets to the single-node default."""
    global _pool_fn
    _pool_fn = fn


def set_merge_placement(fn: Optional[Callable[[str], dict]]) -> None:
    """``fn(index_dir) -> Ray task options`` for the segment-rewrite tasks
    of ``merge_segments`` and ``tiered_merge`` (consulted once per call).
    ``None`` resets to the default."""
    global _merge_fn
    _merge_fn = fn


def pool_actor_options(index_dir: str, shard_ids) -> dict:
    """Options for one pool actor owning ``shard_ids``. Default num_cpus=0
    (a long-lived pool must never starve Dataset tasks of logical CPUs —
    see QueryPool's docstring); the hook may override it."""
    opts = {"num_cpus": 0}
    if _pool_fn is not None:
        opts.update(_pool_fn(index_dir, list(shard_ids)) or {})
    return opts


def merge_remote_args(index_dir: str) -> dict:
    """Task options for the segment-rewrite tasks. Default num_cpus=1."""
    opts = {"num_cpus": 1}
    if _merge_fn is not None:
        opts.update(_merge_fn(index_dir) or {})
    return opts
