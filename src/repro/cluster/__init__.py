"""Cluster substrate: multi-resource capacity tracking and the
resource-time space of Sec. III-B.

* :class:`ClusterState` — the live simulator state used by the scheduling
  environment and MCTS: which tasks are running, what capacity is free,
  and event-driven time advancement.
* :class:`ResourceTimeSpace` — the two-dimensional (resource x time)
  occupancy grid used for Graphene's forward/backward placement.
"""

from .resources import ResourceVector, fits, subtract, add
from .sim_adapter import ClusterProcess
from .state import ClusterState, RunningTask
from .timeline import ResourceTimeSpace

__all__ = [
    "ResourceVector",
    "fits",
    "subtract",
    "add",
    "ClusterProcess",
    "ClusterState",
    "RunningTask",
    "ResourceTimeSpace",
]
