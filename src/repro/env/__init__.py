"""The dependency-aware scheduling MDP of Sec. III-B.

States pair a :class:`repro.cluster.ClusterState` with the job's ready /
pending / finished bookkeeping; actions either place one ready task or
process the cluster; the return of an episode is the negative makespan.
"""

from .actions import PROCESS, Action
from .scheduling_env import SchedulingEnv, StepResult
from .observation import ObservationBuilder, observation_size

__all__ = [
    "PROCESS",
    "Action",
    "SchedulingEnv",
    "StepResult",
    "ObservationBuilder",
    "observation_size",
]
