"""State featurization for the DRL agent (Sec. III-D).

The observation concatenates:

1. **Cluster image** — for every resource, the occupied fraction of each of
   the next ``horizon`` slots, computed from the remaining runtimes of the
   running tasks (the "resource-time space" rendered as rectangles).
2. **Ready-task block** — for each of the ``max_ready`` visible slots, the
   task's normalized demands, runtime, and the graph features the paper
   adds on top of Tetris-style demand-only states: **b-level**,
   **#children**, and **b-load** per resource.  Empty slots are zero.
3. **Scalars** — normalized backlog length and completed fraction, giving
   the network the context the visibility window hides.

All features are normalized to roughly [0, 1] using per-graph constants
(critical path, total work, max runtime), so one trained network transfers
across DAG instances of similar scale — the property Fig. 8(b) relies on
(train on 25-task DAGs, deploy inside Spear on 100-task DAGs).
"""

from __future__ import annotations

import numpy as np

from ..config import EnvConfig
from ..dag.features import GraphFeatures, compute_features
from ..dag.graph import TaskGraph
from ..errors import ConfigError
from .scheduling_env import SchedulingEnv

__all__ = ["ObservationBuilder", "observation_size"]

#: Feature count per visible ready-task slot, excluding demands and b-loads
#: (runtime, b-level, #children).
_PER_TASK_SCALARS = 3

#: Trailing global scalars (backlog fill, completed fraction).
_GLOBAL_SCALARS = 2


def observation_size(config: EnvConfig, num_resources: int | None = None) -> int:
    """Dimensionality of observations produced under ``config``.

    Args:
        config: environment configuration.
        num_resources: defaults to the configured cluster's dimensionality.
    """

    resources = (
        num_resources
        if num_resources is not None
        else config.cluster.num_resources
    )
    per_task = resources + _PER_TASK_SCALARS + resources  # demands + scalars + b-loads
    return (
        resources * config.cluster.horizon
        + config.max_ready * per_task
        + _GLOBAL_SCALARS
    )


class ObservationBuilder:
    """Renders :class:`SchedulingEnv` states as fixed-size float vectors.

    Graph features are computed once per graph and cached; building an
    observation is then O(horizon * resources + max_ready).

    Args:
        graph: the job the environment schedules.
        config: environment configuration (must match the env's).
    """

    def __init__(self, graph: TaskGraph, config: EnvConfig) -> None:
        self.graph = graph
        self.config = config
        self.features: GraphFeatures = compute_features(graph)
        self._capacities = config.cluster.capacities
        self._horizon = config.cluster.horizon
        # Normalizers (>= 1 so zero-division is impossible); the graph
        # policy's builder reads the first two.
        self.max_runtime = max(task.runtime for task in graph)
        self.critical_path = max(1, self.features.critical_path)
        self._max_children = max(
            1, max(self.features.num_children.values(), default=1)
        )
        self._max_bload = tuple(
            max(1, max(bl[r] for bl in self.features.b_load.values()))
            for r in range(graph.num_resources)
        )
        self.size = observation_size(config, graph.num_resources)
        resources = len(self._capacities)
        if resources != graph.num_resources:
            raise ConfigError(
                f"cluster has {resources} resources, graph has "
                f"{graph.num_resources}"
            )
        # Layout of the flat vector: image | max_ready task rows | scalars.
        self._image_shape = (resources, self._horizon)
        self._image_size = resources * self._horizon
        self._per_task = resources * 2 + _PER_TASK_SCALARS
        self._capacity_column = np.asarray(
            self._capacities, dtype=np.float64
        )[:, None]
        # task_features is pure per (graph, config): memoize per task id.
        self._task_feature_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #

    def _render_image(self, env: SchedulingEnv, image: np.ndarray) -> None:
        """Accumulate the occupancy image into the zeroed ``image``."""
        for remaining, demands in env.cluster.occupancy():
            if remaining <= 0:
                continue
            for r, demand in enumerate(demands):
                # A slice past the horizon stops at the horizon.
                image[r, :remaining] += demand
        image /= self._capacity_column

    def cluster_image(self, env: SchedulingEnv) -> np.ndarray:
        """Occupancy image of shape ``(num_resources, horizon)`` in [0, 1]."""
        image = np.zeros(self._image_shape, dtype=np.float64)
        self._render_image(env, image)
        return image

    def task_features(self, task_id: int) -> np.ndarray:
        """Normalized feature vector for one ready task.

        Layout: demands (per resource) | runtime | b-level | #children |
        b-load (per resource).

        The vector depends only on the (immutable) graph and config, so it
        is computed once per task and cached; treat the returned array as
        read-only — it is shared across calls.
        """
        cached = self._task_feature_cache.get(task_id)
        if cached is not None:
            return cached
        task = self.graph.task(task_id)
        demands = [
            d / c for d, c in zip(task.demands, self._capacities)
        ]
        if self.config.include_graph_features:
            scalars = [
                task.runtime / self.max_runtime,
                self.features.b_level[task_id] / self.critical_path,
                self.features.num_children[task_id] / self._max_children,
            ]
            bloads = [
                self.features.b_load[task_id][r] / self._max_bload[r]
                for r in range(self.graph.num_resources)
            ]
        else:
            # Demand-only ablation: the runtime stays (Tetris-style states
            # know durations) but every graph-topology feature is zeroed.
            scalars = [task.runtime / self.max_runtime, 0.0, 0.0]
            bloads = [0.0] * self.graph.num_resources
        vector = np.asarray(demands + scalars + bloads, dtype=np.float64)
        self._task_feature_cache[task_id] = vector
        return vector

    def state_key(self, env: SchedulingEnv) -> tuple:
        """Hashable of every env query :meth:`build` reads.

        Equal keys mean byte-equal observations (for this builder's
        graph and config).  :meth:`SchedulingEnv.window_signature` holds
        the cluster's occupancy, which fixes the image (demands are
        integers, so the order of accumulation cannot matter); the
        visible ready ids in order, which fix the task rows; and the
        ready and finished counts, which fix the two scalars.  Distinct
        keys may still collide in observation (a task running past the
        horizon, two tasks with equal feature rows); that only costs the
        memo a hit.
        """
        return env.window_signature()

    def build(self, env: SchedulingEnv) -> np.ndarray:
        """Full observation vector for the env's current state.

        Every part is written into its slot of one zeroed vector (the
        image through a reshaped view); the caller owns the result —
        trainers keep observations for the length of an epoch.
        """
        observation = np.zeros(self.size, dtype=np.float64)
        start = self._image_size
        self._render_image(
            env, observation[:start].reshape(self._image_shape)
        )
        per_task = self._per_task
        for tid in env.visible_ready():
            stop = start + per_task
            observation[start:stop] = self.task_features(tid)
            start = stop
        num_tasks = self.graph.num_tasks
        observation[-2] = env.backlog_size / max(1, num_tasks)
        observation[-1] = env.num_finished / num_tasks
        return observation
