"""JSON (de)serialization of task graphs.

The schema is intentionally flat and versioned so saved workloads remain
loadable across library versions:

.. code-block:: json

    {
      "version": 1,
      "tasks": [{"id": 0, "runtime": 3, "demands": [2, 1], "name": "map-0"}],
      "edges": [[0, 1]]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from ..errors import TraceError
from .graph import TaskGraph
from .task import check_task, exact_ints

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "is_integer_list",
    "save_graph",
    "load_graph",
]

SCHEMA_VERSION = 1


def is_integer_list(raw: Any) -> bool:
    """True iff ``raw`` is a JSON array of JSON integers: a ``list`` whose
    every element is an exact ``int`` — not a ``bool``, not a float, not a
    numeric string (no Python-level loop: loaders call this per task)."""
    return type(raw) is list and exact_ints(raw)


def graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Serialize ``graph`` to a JSON-compatible dictionary."""

    return {
        "version": SCHEMA_VERSION,
        "tasks": [
            {
                "id": task.task_id,
                "runtime": task.runtime,
                "demands": list(task.demands),
                "name": task.name,
            }
            for task in graph
        ],
        "edges": [list(edge) for edge in graph.edges()],
    }


def graph_from_dict(payload: Dict[str, Any]) -> TaskGraph:
    """Reconstruct a :class:`TaskGraph` from :func:`graph_to_dict` output.

    Numbers must be JSON integers — ``id``, ``runtime``, every demand and
    both endpoints of every edge; a float (``2.7``, ``NaN``, ``1e999``), a
    boolean or a numeric string is rejected rather than truncated or
    coerced.  ``name`` is a string or null.

    Raises:
        TraceError: if the payload is missing fields, has a wrong version,
            holds a value of the wrong type, or describes a task
            :func:`~repro.dag.task.check_task` refuses (runtime < 1,
            negative id or demand, no demands).
        GraphError: if the tasks and edges do not form a DAG (duplicate
            ids, unknown endpoints, self-loops, cycles, mixed
            dimensionality).
    """

    if not isinstance(payload, dict):
        raise TraceError(f"expected a dict payload, got {type(payload).__name__}")
    version = payload.get("version")
    if version != SCHEMA_VERSION:
        raise TraceError(f"unsupported graph schema version {version!r}")
    try:
        ids, runtimes, demand_rows, names = [], [], [], []
        for entry in payload["tasks"]:
            task_id, runtime, demands = entry["id"], entry["runtime"], entry["demands"]
            name = entry.get("name")
            if (
                type(task_id) is not int
                or type(runtime) is not int
                or not is_integer_list(demands)
            ):
                raise TraceError(
                    f"task #{len(ids)}: id and runtime must be JSON "
                    "integers, demands a list of them"
                )
            if name is not None and type(name) is not str:
                raise TraceError(f"task {task_id}: name must be a string or null")
            demands = tuple(demands)
            check_task(task_id, runtime, demands)
            ids.append(task_id)
            runtimes.append(runtime)
            demand_rows.append(demands)
            names.append(name)
        edges = []
        for edge in payload.get("edges", []):
            up, down = edge
            if type(up) is not int or type(down) is not int:
                raise TraceError(
                    f"edge #{len(edges)}: endpoints must be JSON integers"
                )
            edges.append((up, down))
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: an edge that is not a pair, or what ``check_task``
        # refuses (``ConfigError`` is one).
        raise TraceError(f"malformed graph payload: {exc}") from exc
    # The columns are checked JSON integers: the graph makes no ``Task``
    # until one is asked for.
    return TaskGraph._from_columns(ids, runtimes, demand_rows, names, edges)


def save_graph(graph: TaskGraph, path: Union[str, Path]) -> None:
    """Write ``graph`` to ``path`` as JSON."""

    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_graph(path: Union[str, Path]) -> TaskGraph:
    """Load a graph previously written with :func:`save_graph`."""

    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TraceError(f"invalid JSON in {path}: {exc}") from exc
    return graph_from_dict(payload)
