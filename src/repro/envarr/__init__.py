"""Batched kernels over the one scheduling environment.

There is one environment, :class:`repro.env.SchedulingEnv`.  What lives
here is what wins *in batches* — kernels that advance or render many
same-graph states per NumPy call — and the dense data they run on:

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
* :class:`BatchObservationBuilder` /
  :func:`~repro.envarr.observation.node_state_batch` — ``B``
  states rendered into one observation matrix per call, the input of
  batched policy evaluation (:class:`repro.rl.evaluator.PolicyEvaluator`).

See DESIGN.md Sec. 15 for why there is no second environment, the lane
format and the measurements.
"""

from .batch import BatchedPlayouts, batch_random_playouts
from .graphdata import GraphArrays, graph_arrays
from .lanes import LaneSnapshot, lane_snapshot
from .observation import BatchObservationBuilder

__all__ = [
    "BatchObservationBuilder",
    "BatchedPlayouts",
    "GraphArrays",
    "LaneSnapshot",
    "batch_random_playouts",
    "graph_arrays",
    "lane_snapshot",
]
