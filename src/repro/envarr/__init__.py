"""Dense graph data over the one scheduling environment.

There is one environment, :class:`repro.env.SchedulingEnv`, and one
playout loop, :meth:`~repro.env.SchedulingEnv.random_playout` (it also
plays the lanes of pure-MCTS waves).  What lives here is the dense data
the graph policy runs on:

* :class:`GraphArrays` — a :class:`~repro.dag.graph.TaskGraph` compiled to
  CSR adjacency (``child_indptr``/``child_indices``) plus flat duration /
  demand / indegree vectors, with the Sec. III-D graph features (b-level,
  t-level, b-load) computed as level-bucketed NumPy segment sweeps rather
  than per-node recursion.
* :func:`~repro.envarr.observation.task_feature_table` — the static
  per-task feature matrix the graph policy's node encoder reads.

See DESIGN.md Sec. 15 for why there is no second environment and no
batched playout kernel.
"""

from .graphdata import GraphArrays, graph_arrays

__all__ = ["GraphArrays", "graph_arrays"]
