"""Cluster substrate: multi-resource capacity tracking.

* :class:`ClusterState` — the live simulator state used by the scheduling
  environment and MCTS: which tasks are running, what capacity is free,
  and event-driven time advancement.

Graphene's virtual resource-time space (Sec. III-B) is a step-function
profile private to :mod:`repro.schedulers.graphene`, its only user.
"""

from .resources import ResourceVector, fits
from .sim_adapter import ClusterProcess
from .state import ClusterState, RunningTask

__all__ = [
    "ResourceVector",
    "fits",
    "ClusterProcess",
    "ClusterState",
    "RunningTask",
]
