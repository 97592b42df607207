"""Output checks that do not lean on the code under test.

The benchmark accepts a schedule only if ``repro``'s own verifier accepts
it *and* its makespan respects a bound worked out here from nothing but
task runtimes, demands and edges: the critical-path length and the
per-resource work bound ``ceil(work_r / capacity_r)`` (CPLen / TWork in
DAGPS, *Do the Hard Stuff First*).  A scheduler cannot beat that bound, so
a makespan below it means the program's output is wrong however fast it
was produced.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Sequence

__all__ = ["makespan_lower_bound", "params_digest", "result_digest"]


def makespan_lower_bound(graph: Any, capacities: Sequence[int]) -> int:
    """``max(critical path, max_r ceil(work_r / capacity_r))`` of ``graph``.

    Reads only ``topological_order()``, ``parents()`` and each task's
    ``runtime`` / ``demands``; the longest path is recomputed here rather
    than taken from ``TaskGraph.critical_path_length``.
    """
    finish: Dict[int, int] = {}
    work = [0] * len(capacities)
    for tid in graph.topological_order():
        task = graph.task(tid)
        start = max((finish[p] for p in graph.parents(tid)), default=0)
        finish[tid] = start + task.runtime
        for r, demand in enumerate(task.demands):
            work[r] += demand * task.runtime
    critical_path = max(finish.values(), default=0)
    work_bound = max(-(-w // c) for w, c in zip(work, capacities))
    return max(critical_path, work_bound)


def params_digest(params: Mapping[str, Any]) -> str:
    """SHA-256 over a network's parameter arrays (name, shape, bytes).

    Hashing the arrays rather than the ``.npz`` file keeps the digest
    stable when the checkpoint is regenerated: zip members carry a
    timestamp, the parameters do not.
    """
    import numpy as np

    sha = hashlib.sha256()
    for key in sorted(params):
        array = np.ascontiguousarray(params[key], dtype=np.float64)
        sha.update(key.encode("utf-8"))
        sha.update(repr(array.shape).encode("utf-8"))
        sha.update(array.tobytes())
    return sha.hexdigest()


def result_digest(exact: Any) -> str:
    """Short digest of a workload's exact-repeat values (JSON-able)."""
    line = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]
