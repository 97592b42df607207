"""Batched kernels over the one scheduling environment.

There is one environment, :class:`repro.env.SchedulingEnv`.  What lives
here is the lockstep random-playout kernel of pure-MCTS waves and the
dense data it and the graph policy run on:

* :class:`GraphArrays` — a :class:`~repro.dag.graph.TaskGraph` compiled to
  CSR adjacency (``child_indptr``/``child_indices``) plus flat duration /
  demand / indegree vectors, with the Sec. III-D graph features (b-level,
  t-level, b-load) computed as level-bucketed NumPy segment sweeps rather
  than per-node recursion.
* :func:`lane_snapshot` — ``B`` environment states copied into dense
  matrices (free capacity, finish times, unmet-parent countdown, ready
  queues): the one place an env state becomes kernel input.
* :class:`BatchedPlayouts` — many random playouts advanced in NumPy
  lockstep per call, the rollout kernel of batched MCTS
  (``MctsConfig.rollout_batch``).
* :func:`~repro.envarr.observation.task_feature_table` — the static
  per-task feature matrix the graph policy's node encoder reads.

See DESIGN.md Sec. 15 for why there is no second environment, the lane
format and the measurements.
"""

from .batch import BatchedPlayouts, batch_random_playouts
from .graphdata import GraphArrays, graph_arrays
from .lanes import LaneSnapshot, lane_snapshot

__all__ = [
    "BatchedPlayouts",
    "GraphArrays",
    "LaneSnapshot",
    "batch_random_playouts",
    "graph_arrays",
    "lane_snapshot",
]
