"""The :class:`Task` value type.

A task is the unit of scheduling: it runs for an integer number of time
slots and, while running, occupies an integer number of slots in each
resource dimension (Sec. II-C: "the top number denotes the runtime of the
task and the bottom vector shows the resource demands").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from ..errors import ConfigError

__all__ = ["Task", "check_task", "exact_ints"]

_INT_ONLY = frozenset((int,))


def exact_ints(values: Iterable[object]) -> bool:
    """True iff every value's type is exactly ``int``: not a ``bool``, not
    a float, not a NumPy integer (no Python-level loop)."""
    return _INT_ONLY.issuperset(map(type, values))


def check_task(task_id: int, runtime: int, demands: Sequence[int]) -> bool:
    """The rule every task obeys, wherever its fields come from.

    :class:`Task` applies it on construction, and the loaders that fill a
    :class:`~repro.dag.graph.TaskGraph`'s tables without making ``Task``
    objects (:func:`~repro.dag.io.graph_from_dict`) apply it per task.
    The first failing check wins, in field order.

    Returns:
        Whether ``demands`` already is what a ``Task`` holds: a plain
        tuple of exact ints (found on the same pass).

    Raises:
        ConfigError: on a negative id, a runtime below 1, no resource
            dimension, or a negative demand.
    """
    if task_id < 0:
        raise ConfigError(f"task_id must be >= 0, got {task_id}")
    if runtime < 1:
        raise ConfigError(f"task {task_id}: runtime must be >= 1, got {runtime}")
    if not demands:
        raise ConfigError(f"task {task_id}: needs >= 1 resource dimension")
    exact = type(demands) is tuple
    for demand in demands:
        if demand < 0:
            raise ConfigError(f"task {task_id}: demands must be >= 0, got {demands}")
        if type(demand) is not int:
            exact = False
    return exact


@dataclass(frozen=True)
class Task:
    """An immutable task with runtime and multi-resource demands.

    Attributes:
        task_id: unique non-negative identifier within a graph.
        runtime: execution duration in time slots (>= 1); a task runs
            non-preemptively once started.
        demands: slots required per resource dimension while running.
            Each entry must be >= 0 and at least one must be positive for a
            task to occupy the cluster meaningfully; zero-demand tasks are
            permitted (pure synchronization barriers).
        name: optional human-readable label (e.g. ``"map-7"``).
    """

    task_id: int
    runtime: int
    demands: Tuple[int, ...]
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        task_id, runtime, demands = self.task_id, self.runtime, self.demands
        # Normalize to a plain tuple of ints so hashing/serialization is
        # stable.  What already is one (a loader hands over what
        # ``json.loads`` produced) is kept as the very objects passed.
        if not check_task(task_id, runtime, demands):
            object.__setattr__(self, "demands", tuple(int(d) for d in demands))
        if type(runtime) is not int:
            object.__setattr__(self, "runtime", int(runtime))
        if type(task_id) is not int:
            object.__setattr__(self, "task_id", int(task_id))

    @property
    def num_resources(self) -> int:
        """Number of resource dimensions this task's demand vector spans."""
        return len(self.demands)

    def load(self, resource: int) -> int:
        """Work volume in one dimension: ``runtime * demands[resource]``.

        This is the per-task term of the *b-load* feature of Sec. III-D.
        """
        return self.runtime * self.demands[resource]

    def total_load(self) -> int:
        """Work volume summed over all resource dimensions."""
        return self.runtime * sum(self.demands)

    def label(self) -> str:
        """Display label: the explicit name if set, else ``"task-<id>"``."""
        return self.name if self.name is not None else f"task-{self.task_id}"

    def with_runtime(self, runtime: int) -> "Task":
        """Return a copy with a different runtime (used by trace scaling)."""
        return Task(self.task_id, runtime, self.demands, self.name)
