"""Batched observation building over dense lanes.

:class:`BatchObservationBuilder` renders ``B`` environment states into one
``(B, size)`` float matrix per call — the input layout batched policy /
value networks consume (ROADMAP item 3) — instead of ``B`` separate
:meth:`ObservationBuilder.build` calls.  The per-task feature table is
precomputed once as an ``(N, per_task)`` matrix from :class:`GraphArrays`'
vectorized features, so filling the ready block is a gather; the cluster
image is accumulated with one ``np.add.at`` scatter over all lanes'
running tasks.  Row ``b`` of the output is element-wise identical to
:meth:`ObservationBuilder.build` for the same state (pinned by the unit
tests).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import EnvConfig
from ..env.observation import observation_size
from ..env.scheduling_env import SchedulingEnv
from .graphdata import GraphArrays, graph_arrays
from .lanes import INF, lane_snapshot

__all__ = ["BatchObservationBuilder", "task_feature_table", "node_state_batch"]

#: Dynamic per-node state channels rendered by :func:`node_state_batch`:
#: visible-ready, ready (incl. backlog), running, finished, remaining-runtime.
NODE_STATE_CHANNELS = 5

#: Global feature channels beyond the per-resource free fractions:
#: progress, backlog, normalized clock.
GLOBAL_EXTRA_CHANNELS = 3


def task_feature_table(arrays: GraphArrays, config: EnvConfig) -> np.ndarray:
    """Static per-task features as an ``(N, 2R + 3)`` matrix.

    Rows match :meth:`repro.env.observation.ObservationBuilder`'s
    ``task_features`` layout — demands | runtime | b-level | #children |
    b-loads — with the same ``>= 1`` normalizers.  Shared by the batched
    window observation builder and the graph policy's node encoder.
    """
    n = arrays.num_tasks
    resources = arrays.num_resources
    capacities = np.asarray(config.cluster.capacities, dtype=np.float64)
    max_runtime = max(1, int(arrays.durations.max()))
    critical_path = max(1, arrays.critical_path)
    max_children = max(1, int(arrays.num_children.max()))
    max_bload = np.maximum(arrays.b_load.max(axis=0), 1).astype(np.float64)
    table = np.empty((n, resources * 2 + 3), dtype=np.float64)
    table[:, :resources] = arrays.demands / capacities[None, :]
    table[:, resources] = arrays.durations / max_runtime
    if config.include_graph_features:
        table[:, resources + 1] = arrays.b_level / critical_path
        table[:, resources + 2] = arrays.num_children / max_children
        table[:, resources + 3 :] = arrays.b_load / max_bload[None, :]
    else:
        table[:, resources + 1 :] = 0.0
    return table


def node_state_batch(
    arrays: GraphArrays,
    config: EnvConfig,
    envs: Sequence[SchedulingEnv],
):
    """Dynamic per-node state for ``B`` same-graph environments at once.

    Returns ``(node_states, globals_vec, ready_lists)``:

    * ``node_states`` — ``(B, N, 5)``: visible-ready, ready (incl.
      backlog), running, finished flags plus the remaining-runtime
      fraction of running tasks;
    * ``globals_vec`` — ``(B, R + 3)``: per-resource free fraction,
      progress, backlog and clock (normalized by the critical path);
    * ``ready_lists`` — each lane's visible ready window as dense task
      indices, in slot order (the graph policy's action layout).

    The single-state equivalent is
    :meth:`repro.rl.gnn.GraphObservationBuilder.build`; lane ``b`` here
    matches it element-for-element (pinned by the unit tests).
    """
    batch = len(envs)
    n = arrays.num_tasks
    resources = arrays.num_resources
    capacities = np.asarray(config.cluster.capacities, dtype=np.float64)
    max_runtime = max(1, int(arrays.durations.max()))
    critical_path = max(1, arrays.critical_path)
    max_ready = config.max_ready

    node_states = np.zeros((batch, n, NODE_STATE_CHANNELS), dtype=np.float64)
    globals_vec = np.empty(
        (batch, resources + GLOBAL_EXTRA_CHANNELS), dtype=np.float64
    )
    lanes = lane_snapshot(arrays, config, envs)
    finish = lanes.finish
    now = lanes.now
    running = finish != INF
    node_states[:, :, 2] = running
    node_states[:, :, 4] = np.where(running, finish - now[:, None], 0) / max_runtime
    # Neither waiting on a parent, nor running, nor (below) ready: finished.
    node_states[:, :, 3] = (lanes.unmet == 0) & ~running
    ready_lists = []
    for b, ready in enumerate(lanes.ready):
        visible = ready[:max_ready]
        ready_lists.append(visible)
        node_states[b, visible, 0] = 1.0
        node_states[b, ready, 1] = 1.0
        node_states[b, ready, 3] = 0.0
        globals_vec[b, resources + 1] = max(0, len(ready) - max_ready) / max(1, n)
    globals_vec[:, :resources] = lanes.free / capacities
    globals_vec[:, resources] = lanes.num_finished / n
    globals_vec[:, resources + 2] = now / critical_path
    return node_states, globals_vec, ready_lists


class BatchObservationBuilder:
    """Vectorized many-state observation renderer.

    Args:
        graph_or_arrays: the job (or its compiled arrays) the lanes run.
        config: environment configuration (must match the envs').
    """

    def __init__(self, graph_or_arrays, config: EnvConfig) -> None:
        arrays = graph_arrays(graph_or_arrays)
        self.arrays = arrays
        self.config = config
        self.size = observation_size(config, arrays.num_resources)
        capacities = np.asarray(config.cluster.capacities, dtype=np.float64)
        self._capacities = capacities
        self._horizon = config.cluster.horizon
        resources = arrays.num_resources
        self._task_table = task_feature_table(arrays, config)
        self._per_task = resources * 2 + 3

    # ------------------------------------------------------------------ #

    def build_batch(self, envs: Sequence[SchedulingEnv]) -> np.ndarray:
        """Render every env into one ``(B, size)`` observation matrix."""
        arrays = self.arrays
        batch = len(envs)
        n = arrays.num_tasks
        resources = arrays.num_resources
        horizon = self._horizon
        max_ready = self.config.max_ready

        # Cluster image: every running task occupies its demands over the
        # prefix ``[0, remaining)`` of the horizon, so the image is the
        # time-axis prefix sum of a sparse difference array — two scatters
        # (one add at column 0, one subtract at column ``remaining``) and
        # one cumsum cover all lanes at once.
        state = lane_snapshot(arrays, self.config, envs)
        finish = state.finish
        remaining = np.clip(finish - state.now[:, None], 0, horizon)
        remaining[finish == INF] = 0
        lanes, tasks = np.nonzero(remaining > 0)
        diff = np.zeros((batch, resources, horizon + 1), dtype=np.float64)
        if lanes.size:
            spans = remaining[lanes, tasks]
            resource_cols = np.arange(resources)[None, :]
            occupancy = arrays.demands[tasks].astype(np.float64)
            np.add.at(diff, (lanes[:, None], resource_cols, 0), occupancy)
            np.add.at(
                diff, (lanes[:, None], resource_cols, spans[:, None]), -occupancy
            )
        image = np.cumsum(diff, axis=2)[:, :, :horizon]
        image /= self._capacities[None, :, None]

        # Ready block: gather each lane's visible window from the feature
        # table (empty slots stay zero).
        block = np.zeros((batch, max_ready, self._per_task), dtype=np.float64)
        backlog = np.zeros(batch, dtype=np.float64)
        for b, ready in enumerate(state.ready):
            visible = ready[:max_ready]
            if visible:
                block[b, : len(visible)] = self._task_table[visible]
            backlog[b] = max(0, len(ready) - max_ready) / max(1, n)
        finished = state.num_finished / n
        out = np.concatenate(
            [
                image.reshape(batch, -1),
                block.reshape(batch, -1),
                backlog[:, None],
                finished[:, None],
            ],
            axis=1,
        )
        if out.shape[1] != self.size:
            raise AssertionError(
                f"observation size mismatch: {out.shape[1]} != {self.size}"
            )
        return out

    def build(self, env: SchedulingEnv) -> np.ndarray:
        """Single-state convenience: row 0 of a one-lane batch."""
        return self.build_batch([env])[0]
