"""Node-affinity / placement hint for the segment-rewrite tasks.

On a real multi-node cluster the segment-rewrite tasks of
``merge_segments`` / ``tiered_merge`` should co-locate with the
generations they rewrite. The sandbox is single-node, so the DEFAULT is no
hint at all — behavior is byte-identical to the unhinted engine — and a
deployment opts in with::

    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy
    from archivesspace_virgo_ray.index import placement

    def pin(index_dir):
        return {"scheduling_strategy":
                    NodeAffinitySchedulingStrategy(my_node_of[index_dir],
                                                   soft=True)}

    placement.set_merge_placement(pin)

The hook returns plain Ray task options (``scheduling_strategy``,
``num_cpus``, ``resources`` — anything ``.options()`` accepts), merged over
the engine's defaults. ``soft=True`` is strongly recommended: a hard
affinity to a dead node would wedge the merge.
"""

from __future__ import annotations

from typing import Callable, Optional

_merge_fn: Optional[Callable[[str], dict]] = None


def set_merge_placement(fn: Optional[Callable[[str], dict]]) -> None:
    """``fn(index_dir) -> Ray task options`` for the segment-rewrite tasks
    of ``merge_segments`` and ``tiered_merge`` (consulted once per call).
    ``None`` resets to the default."""
    global _merge_fn
    _merge_fn = fn


def merge_remote_args(index_dir: str) -> dict:
    """Task options for the segment-rewrite tasks. Default num_cpus=1."""
    opts = {"num_cpus": 1}
    if _merge_fn is not None:
        opts.update(_merge_fn(index_dir) or {})
    return opts
