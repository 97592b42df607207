"""Static per-task features over the compiled graph.

:func:`task_feature_table` is the ``(N, per_task)`` matrix of
:class:`GraphArrays`' vectorized features that the graph policy's node
encoder reads (:class:`repro.rl.gnn.GraphObservationBuilder`), next to
the widths of the dynamic channels that builder renders per state.
"""

from __future__ import annotations

import numpy as np

from ..config import EnvConfig
from .graphdata import GraphArrays

__all__ = ["GLOBAL_EXTRA_CHANNELS", "NODE_STATE_CHANNELS", "task_feature_table"]

#: Dynamic per-node state channels of a graph observation:
#: visible-ready, ready (incl. backlog), running, finished, remaining-runtime.
NODE_STATE_CHANNELS = 5

#: Global feature channels beyond the per-resource free fractions:
#: progress, backlog, normalized clock.
GLOBAL_EXTRA_CHANNELS = 3


def task_feature_table(arrays: GraphArrays, config: EnvConfig) -> np.ndarray:
    """Static per-task features as an ``(N, 2R + 3)`` matrix.

    Rows match :meth:`repro.env.observation.ObservationBuilder`'s
    ``task_features`` layout — demands | runtime | b-level | #children |
    b-loads — with the same ``>= 1`` normalizers.
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
