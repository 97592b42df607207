"""Graph-topology features used by the DRL state (Sec. III-D).

The paper augments per-task resource demands with features that capture how
important a task is for the makespan of the whole DAG:

* **b-level** — length of the longest runtime-weighted path from the task to
  an exit node, *including* the task's own runtime.  The maximum b-level over
  all tasks equals the critical-path length.
* **#children** — out-degree, the classic b-level tiebreaker.
* **b-load(r)** — accumulated load (``runtime * demand[r]``) along the
  task's b-level path, one value per resource dimension.  Where several
  children attain the same b-level, the child with the larger accumulated
  load is followed (deterministic tie-break by task id thereafter).

Also provided: **t-level** (longest path from a source to the task,
excluding the task), used by analysis tooling and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .graph import TaskGraph

__all__ = ["GraphFeatures", "compute_features"]


@dataclass(frozen=True)
class GraphFeatures:
    """Per-task topology features for one :class:`TaskGraph`.

    All mappings are keyed by task id and cover every task in the graph.

    Attributes:
        b_level: longest downstream runtime-weighted path, inclusive.
        t_level: longest upstream runtime-weighted path, exclusive.
        num_children: out-degree of each task.
        b_load: per-task tuple with one accumulated-load entry per
            resource dimension, measured along the b-level path.
        critical_path: the maximum b-level (= DAG critical-path length).
    """

    b_level: Dict[int, int]
    t_level: Dict[int, int]
    num_children: Dict[int, int]
    b_load: Dict[int, Tuple[int, ...]]
    critical_path: int

    def priority_order(self) -> Tuple[int, ...]:
        """Task ids sorted by descending b-level (the CP heuristic order).

        Ties break on descending #children, then ascending id, matching the
        tie-breaking convention described in Sec. III-D.
        """
        return tuple(
            sorted(
                self.b_level,
                key=lambda tid: (
                    -self.b_level[tid],
                    -self.num_children[tid],
                    tid,
                ),
            )
        )


#: Memo of recently computed features, keyed by graph identity.  The value
#: keeps a strong reference to the graph and is compared with ``is`` before
#: use: ``id()`` alone could collide after a garbage-collected graph's
#: address is reused, and :class:`TaskGraph` uses ``__slots__`` without
#: ``__weakref__`` (and an O(V+E) ``__hash__``), so a ``WeakKeyDictionary``
#: is not an option.  Bounded FIFO keeps long experiment sweeps from
#: pinning every graph they ever touched.
_FEATURE_CACHE: Dict[int, Tuple[TaskGraph, GraphFeatures]] = {}
_FEATURE_CACHE_MAX = 64


def compute_features(graph: TaskGraph) -> GraphFeatures:
    """Compute :class:`GraphFeatures` for ``graph`` in O(V + E).

    A single reverse-topological sweep over the graph's child table
    yields b-level and b-load together (each task's load sum carried,
    not recomputed per comparison); a forward sweep yields t-level.
    Results are memoized per graph instance (graphs are immutable):
    baseline policies, observation builders and analysis tooling all ask
    for the same graph's features repeatedly, often once per episode.
    """

    key = id(graph)
    cached = _FEATURE_CACHE.get(key)
    if cached is not None and cached[0] is graph:
        return cached[1]

    order = graph.topological_order()
    children = graph.child_table()
    tasks = graph.tasks()

    b_level: Dict[int, int] = {}
    b_load: Dict[int, Tuple[int, ...]] = {}
    load_sum: Dict[int, int] = {}  # sum(b_load[tid]), carried along
    for tid in reversed(order):
        task = tasks[tid]
        runtime = task.runtime
        own_load = tuple(runtime * demand for demand in task.demands)
        kids = children[tid]
        if not kids:
            b_level[tid] = runtime
            b_load[tid] = own_load
            load_sum[tid] = sum(own_load)
            continue
        # Follow the child with the largest b-level; among equals prefer the
        # heavier accumulated load, then the smallest id (determinism):
        # children ascend by id, so only a strictly better child replaces.
        best = kids[0]
        best_level = b_level[best]
        best_sum = load_sum[best]
        for kid in kids[1:]:
            level, total = b_level[kid], load_sum[kid]
            if level > best_level or (level == best_level and total > best_sum):
                best, best_level, best_sum = kid, level, total
        b_level[tid] = runtime + best_level
        b_load[tid] = tuple(
            own + downstream for own, downstream in zip(own_load, b_load[best])
        )
        load_sum[tid] = sum(own_load) + best_sum

    # Forward: each task pushes its finish offset to its children.
    t_level: Dict[int, int] = dict.fromkeys(order, 0)
    for tid in order:
        finish = t_level[tid] + tasks[tid].runtime
        for kid in children[tid]:
            if finish > t_level[kid]:
                t_level[kid] = finish

    num_children = {tid: len(children[tid]) for tid in order}
    critical_path = max(b_level.values())
    features = GraphFeatures(
        b_level=b_level,
        t_level=t_level,
        num_children=num_children,
        b_load=b_load,
        critical_path=critical_path,
    )
    if len(_FEATURE_CACHE) >= _FEATURE_CACHE_MAX:
        _FEATURE_CACHE.pop(next(iter(_FEATURE_CACHE)))
    _FEATURE_CACHE[key] = (graph, features)
    return features
