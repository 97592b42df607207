"""Dataset collection and training for the value network.

Rolls a (policy-network or heuristic) policy over training graphs and
records ``(observation, remaining makespan)`` at every decision; the
remaining makespan of a step is ``makespan - now`` at that step, i.e. the
negative of the reward-to-go.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..config import EnvConfig
from ..dag.graph import TaskGraph
from ..env.observation import ObservationBuilder
from ..env.scheduling_env import SchedulingEnv
from ..errors import EnvironmentStateError
from ..schedulers.base import Policy
from .value_network import ValueNetwork

__all__ = ["collect_value_dataset", "train_value_network"]


def collect_value_dataset(
    graphs: Sequence[TaskGraph],
    policy_factory,
    env_config: EnvConfig | None = None,
    episodes_per_graph: int = 1,
    max_steps: int = 10_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Roll policies over ``graphs``; return (states, remaining-makespans).

    Args:
        graphs: workload to roll over.
        policy_factory: zero-arg callable building a fresh policy per
            episode (heuristics give a cheap, surprisingly good dataset).
        env_config: environment shape.
        episodes_per_graph: repeats per graph (>1 useful for stochastic
            policies).
    """

    env_config = env_config if env_config is not None else EnvConfig(
        process_until_completion=True
    )
    states: List[np.ndarray] = []
    times: List[int] = []
    episode_ends: List[Tuple[int, int]] = []  # (start index, makespan)
    for graph in graphs:
        builder = ObservationBuilder(graph, env_config)
        for _ in range(episodes_per_graph):
            env = SchedulingEnv(graph, env_config)
            policy: Policy = policy_factory()
            policy.begin_episode(env)
            first = len(states)
            steps = 0
            while not env.done:
                if steps >= max_steps:
                    raise EnvironmentStateError("value rollout livelocked")
                states.append(builder.build(env))
                times.append(env.now)
                env.step(policy.select(env))
                steps += 1
            episode_ends.append((first, env.makespan))

    targets = np.empty(len(states), dtype=np.float64)
    bounds = [start for start, _ in episode_ends] + [len(states)]
    for (start, makespan), end in zip(episode_ends, bounds[1:]):
        for i in range(start, end):
            targets[i] = makespan - times[i]
    return np.stack(states), targets


def train_value_network(
    graphs: Sequence[TaskGraph],
    policy_factory,
    env_config: EnvConfig | None = None,
    episodes_per_graph: int = 1,
    epochs: int = 50,
    seed: int = 0,
) -> ValueNetwork:
    """Collect a dataset and fit a :class:`ValueNetwork` on it."""

    env_config = env_config if env_config is not None else EnvConfig(
        process_until_completion=True
    )
    states, targets = collect_value_dataset(
        graphs, policy_factory, env_config, episodes_per_graph
    )
    network = ValueNetwork(states.shape[1], seed=seed)
    network.fit(states, targets, epochs=epochs, seed=seed)
    return network
