"""The :class:`TaskGraph` container.

A ``TaskGraph`` is an immutable directed acyclic graph of :class:`Task`
objects.  Edges point from a task to the tasks that depend on it, i.e.
``u -> v`` means *v cannot start until u has finished*.

The class validates structure at construction time (unique ids, edges that
reference existing tasks, acyclicity, consistent resource dimensionality)
and precomputes parent/child adjacency plus a deterministic topological
order.  All query methods are read-only; schedulers never mutate graphs.

Every per-task fact a consumer looks up in a loop is built here once, as
a table the graph owns and lends out: :meth:`TaskGraph.child_table`,
:meth:`~TaskGraph.parent_table`, :meth:`~TaskGraph.demand_table` and
:meth:`~TaskGraph.runtime_table`.  The environment, the list heuristics,
the schedule export and the online engine borrow them instead of copying.
The tables are what a graph is: one builder makes them from per-task
columns, for the constructor (which reads its :class:`Task` objects'
fields) and for the loader and the layered generator (which fill the
columns directly, so a served request makes no ``Task`` at all).  A
column-built graph makes its ``Task`` objects on the first
:meth:`~TaskGraph.task`, iteration or :meth:`~TaskGraph.tasks` call.
Construction checks every edge in input order, so the first bad edge is
the one an error names.  When every edge points from a smaller id to a
larger one (every generator's graphs and every benchmark DAG), the
topological order is the sorted id list, which is exactly the order
Kahn's smallest-id-first heap would give, so the heap runs only for
other graphs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import CycleError, GraphError, UnknownTaskError
from .task import Task

__all__ = ["TaskGraph"]


class TaskGraph:
    """Immutable DAG of tasks with parent/child adjacency.

    Args:
        tasks: the tasks in the job; ids must be unique and all demand
            vectors must have the same dimensionality.
        edges: iterable of ``(upstream_id, downstream_id)`` dependency pairs.
            Duplicate edges are collapsed; self-loops are rejected.

    Raises:
        GraphError: on duplicate ids, mismatched resource dimensionality,
            or self-loops.
        UnknownTaskError: if an edge references a missing task id.
        CycleError: if the dependency relation is cyclic.
    """

    __slots__ = (
        "_tasks",
        "_names",
        "_children",
        "_parents",
        "_topo_order",
        "_demands",
        "_runtimes",
        "_num_resources",
        "_num_edges",
        "_peak_demand",
    )

    def __init__(
        self,
        tasks: Iterable[Task],
        edges: Iterable[Tuple[int, int]] = (),
    ) -> None:
        tasks = list(tasks)
        self._build(
            [task.task_id for task in tasks],
            [task.runtime for task in tasks],
            [task.demands for task in tasks],
            [task.name for task in tasks],
            edges,
        )
        self._tasks: Optional[Dict[int, Task]] = {task.task_id: task for task in tasks}

    @classmethod
    def _from_columns(
        cls,
        ids: Sequence[int],
        runtimes: Sequence[int],
        demands: Sequence[Tuple[int, ...]],
        names: Sequence[Optional[str]],
        edges: Iterable[Tuple[int, int]] = (),
    ) -> "TaskGraph":
        """A graph straight from per-task columns, in input order, with no
        :class:`Task` made until one is asked for.

        Every ``(id, runtime, demands)`` row must already obey
        :func:`~repro.dag.task.check_task` and hold exact ints in a
        plain tuple: what a ``Task`` holds after construction, what
        :func:`~repro.dag.io.graph_from_dict` checked, what a generator
        drew.  Structure is checked here, as by the constructor.
        """
        graph = cls.__new__(cls)
        graph._build(ids, runtimes, demands, names, edges)
        graph._tasks = None
        return graph

    def _build(
        self,
        ids: Sequence[int],
        runtimes: Sequence[int],
        demands: Sequence[Tuple[int, ...]],
        names: Sequence[Optional[str]],
        edges: Iterable[Tuple[int, int]],
    ) -> None:
        """The one builder: per-task tables from the columns, adjacency
        and order from the edges, every structural check on the way."""
        runtime_of: Dict[int, int] = dict(zip(ids, runtimes))
        if len(runtime_of) != len(ids):
            seen_ids: Set[int] = set()
            for tid in ids:  # name the first repeated id
                if tid in seen_ids:
                    raise GraphError(f"duplicate task id {tid}")
                seen_ids.add(tid)
        if not runtime_of:
            raise GraphError("a task graph must contain at least one task")

        demand_of: Dict[int, Tuple[int, ...]] = dict(zip(ids, demands))
        dims = set(map(len, demands))
        if len(dims) != 1:
            raise GraphError(f"inconsistent resource dimensionality: {sorted(dims)}")
        self._num_resources: int = dims.pop()
        self._peak_demand: Tuple[int, ...] = tuple(
            max(column) for column in zip(*demands)
        )

        children: Dict[int, List[int]] = {tid: [] for tid in runtime_of}
        parents: Dict[int, List[int]] = {tid: [] for tid in runtime_of}
        seen: Set[Tuple[int, int]] = set()
        forward = True
        for up, down in edges:
            if up not in runtime_of:
                raise UnknownTaskError(f"edge references unknown task {up}")
            if down not in runtime_of:
                raise UnknownTaskError(f"edge references unknown task {down}")
            if up == down:
                raise GraphError(f"self-loop on task {up}")
            edge = (up, down)
            if edge not in seen:
                seen.add(edge)
                children[up].append(down)
                parents[down].append(up)
                if up > down:
                    forward = False
        # Sorted in place: a generator's lists mostly arrive ascending.
        for kids in chain(children.values(), parents.values()):
            kids.sort()

        self._runtimes: Dict[int, int] = runtime_of
        self._demands: Dict[int, Tuple[int, ...]] = demand_of
        self._names: Dict[int, Optional[str]] = dict(zip(ids, names))
        self._children: Dict[int, Tuple[int, ...]] = {
            tid: tuple(kids) for tid, kids in children.items()
        }
        self._parents: Dict[int, Tuple[int, ...]] = {
            tid: tuple(pars) for tid, pars in parents.items()
        }
        self._num_edges = len(seen)
        # With every edge pointing up the ids, the smallest unfinished id is
        # always ready, so Kahn's smallest-id-first order is the sorted ids.
        self._topo_order: Tuple[int, ...] = (
            tuple(sorted(runtime_of)) if forward else self._compute_topo_order()
        )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _compute_topo_order(self) -> Tuple[int, ...]:
        """Kahn's algorithm; deterministic (smallest id first) and cycle-safe."""
        children = self._children
        indegree = {tid: len(pars) for tid, pars in self._parents.items()}
        ready = [tid for tid, deg in indegree.items() if deg == 0]
        heapify(ready)
        order: List[int] = []
        while ready:
            tid = heappop(ready)
            order.append(tid)
            for child in children[tid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heappush(ready, child)
        if len(order) != len(indegree):
            remaining = sorted(set(indegree) - set(order))
            raise CycleError(f"dependency cycle involving tasks {remaining[:10]}")
        return tuple(order)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    def _task_map(self) -> Dict[int, Task]:
        """Id -> :class:`Task`, in input order, made on first use."""
        tasks = self._tasks
        if tasks is None:
            # The three tables share the input order of their keys.
            runtimes = self._runtimes
            made = map(
                Task,
                runtimes,
                runtimes.values(),
                self._demands.values(),
                self._names.values(),
            )
            tasks = self._tasks = dict(zip(runtimes, made))
        return tasks

    def _require(self, task_id: int) -> None:
        if task_id not in self._runtimes:
            raise UnknownTaskError(f"no task with id {task_id}")

    @property
    def num_tasks(self) -> int:
        """Number of tasks in the graph."""
        return len(self._runtimes)

    @property
    def num_edges(self) -> int:
        """Number of distinct dependency edges."""
        return self._num_edges

    @property
    def num_resources(self) -> int:
        """Resource dimensionality shared by all tasks."""
        return self._num_resources

    @property
    def peak_demand(self) -> Tuple[int, ...]:
        """Per resource, the largest demand of any one task: the graph can
        ever run on capacities this vector fits."""
        return self._peak_demand

    @property
    def task_ids(self) -> Tuple[int, ...]:
        """All task ids in topological order."""
        return self._topo_order

    def __len__(self) -> int:
        return len(self._runtimes)

    def __iter__(self) -> Iterator[Task]:
        """Iterate tasks in topological order."""
        tasks = self._task_map()
        return (tasks[tid] for tid in self._topo_order)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._runtimes

    def task(self, task_id: int) -> Task:
        """Return the task with ``task_id`` or raise :class:`UnknownTaskError`."""
        tasks = self._task_map()
        try:
            return tasks[task_id]
        except KeyError:
            raise UnknownTaskError(f"no task with id {task_id}") from None

    def tasks(self) -> Mapping[int, Task]:
        """Read-only mapping of id -> task."""
        return dict(self._task_map())

    def children(self, task_id: int) -> Tuple[int, ...]:
        """Ids of tasks that directly depend on ``task_id``, ascending."""
        if task_id not in self._children:
            raise UnknownTaskError(f"no task with id {task_id}")
        return self._children[task_id]

    def child_table(self) -> Mapping[int, Tuple[int, ...]]:
        """Every task's :meth:`children` in one mapping — borrow only,
        never mutate.  The hot-path form for a caller that looks up
        children once per completed task: a dict lookup, no call."""
        return self._children

    def parents(self, task_id: int) -> Tuple[int, ...]:
        """Ids of tasks that ``task_id`` directly depends on, ascending."""
        if task_id not in self._parents:
            raise UnknownTaskError(f"no task with id {task_id}")
        return self._parents[task_id]

    def parent_table(self) -> Mapping[int, Tuple[int, ...]]:
        """Every task's :meth:`parents` in one mapping; borrow only, as
        :meth:`child_table`."""
        return self._parents

    def demand_table(self) -> Mapping[int, Tuple[int, ...]]:
        """Task id -> demand vector, one mapping; borrow only, as
        :meth:`child_table`."""
        return self._demands

    def runtime_table(self) -> Mapping[int, int]:
        """Task id -> runtime, one mapping; borrow only, as
        :meth:`child_table`."""
        return self._runtimes

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate all dependency edges as ``(upstream, downstream)`` pairs."""
        for tid in self._topo_order:
            for child in self._children[tid]:
                yield (tid, child)

    def sources(self) -> Tuple[int, ...]:
        """Tasks with no parents (immediately runnable at time 0)."""
        return tuple(tid for tid in self._topo_order if not self._parents[tid])

    def sinks(self) -> Tuple[int, ...]:
        """Tasks with no children (exit nodes)."""
        return tuple(tid for tid in self._topo_order if not self._children[tid])

    def topological_order(self) -> Tuple[int, ...]:
        """A deterministic topological order of task ids."""
        return self._topo_order

    # ------------------------------------------------------------------ #
    # derived structure
    # ------------------------------------------------------------------ #

    def descendants(self, task_id: int) -> Set[int]:
        """All tasks transitively reachable from ``task_id`` (exclusive)."""
        self._require(task_id)
        seen: Set[int] = set()
        stack = list(self._children[task_id])
        while stack:
            tid = stack.pop()
            if tid not in seen:
                seen.add(tid)
                stack.extend(self._children[tid])
        return seen

    def ancestors(self, task_id: int) -> Set[int]:
        """All tasks that ``task_id`` transitively depends on (exclusive)."""
        self._require(task_id)
        seen: Set[int] = set()
        stack = list(self._parents[task_id])
        while stack:
            tid = stack.pop()
            if tid not in seen:
                seen.add(tid)
                stack.extend(self._parents[tid])
        return seen

    def levels(self) -> List[Tuple[int, ...]]:
        """Partition tasks into precedence levels (level = longest hop count
        from any source).  Level 0 holds the sources."""
        depth = {tid: 0 for tid in self._runtimes}
        for tid in self._topo_order:
            for child in self._children[tid]:
                depth[child] = max(depth[child], depth[tid] + 1)
        buckets: Dict[int, List[int]] = {}
        for tid, d in depth.items():
            buckets.setdefault(d, []).append(tid)
        return [tuple(sorted(buckets[d])) for d in sorted(buckets)]

    def width(self) -> int:
        """Maximum number of tasks in any precedence level."""
        return max(len(level) for level in self.levels())

    def depth(self) -> int:
        """Number of precedence levels."""
        return len(self.levels())

    def total_work(self, resource: int | None = None) -> int:
        """Total work volume: sum of ``runtime * demand`` over tasks.

        With ``resource=None`` sums across all dimensions.
        """
        demands = self._demands
        if resource is None:
            return sum(
                runtime * sum(demands[tid]) for tid, runtime in self._runtimes.items()
            )
        return sum(
            runtime * demands[tid][resource] for tid, runtime in self._runtimes.items()
        )

    def critical_path_length(self) -> int:
        """Length (in time slots) of the longest runtime-weighted path.

        This lower-bounds the makespan of any schedule on any cluster.
        """
        runtimes = self._runtimes
        longest = dict(runtimes)
        for tid in reversed(self._topo_order):
            kids = self._children[tid]
            if kids:
                longest[tid] = runtimes[tid] + max(
                    longest[k] for k in kids
                )
        return max(longest.values())

    def subgraph(self, task_ids: Sequence[int]) -> "TaskGraph":
        """Induced subgraph on ``task_ids`` (edges within the set only)."""
        keep = set(task_ids)
        for tid in keep:
            self._require(tid)
        ids = sorted(keep)
        edges = [(u, v) for u, v in self.edges() if u in keep and v in keep]
        return TaskGraph._from_columns(
            ids,
            [self._runtimes[tid] for tid in ids],
            [self._demands[tid] for tid in ids],
            [self._names[tid] for tid in ids],
            edges,
        )

    # ------------------------------------------------------------------ #
    # dunder conveniences
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        # A Task compares by id, runtime and demands (not name), so equal
        # tables are equal task maps.
        return (
            self._runtimes == other._runtimes
            and self._demands == other._demands
            and self._children == other._children
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted(self._runtimes.items())),
                tuple(sorted(self._demands.items())),
                tuple(sorted(self._children.items())),
            )
        )

    def __repr__(self) -> str:
        return (
            f"TaskGraph(num_tasks={self.num_tasks}, num_edges={self.num_edges}, "
            f"num_resources={self.num_resources})"
        )

