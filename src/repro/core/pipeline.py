"""End-to-end training pipeline: graphs -> imitation -> REINFORCE -> Spear.

Reproduces the Sec. IV recipe:

1. Generate the training set (paper: 144 random DAGs of 25 tasks each).
2. Supervised pre-training to imitate the critical-path heuristic.
3. REINFORCE with the 20-rollout average baseline.
4. Wrap the trained network into a :class:`SpearScheduler`.

Every step is reproducible from a single seed, and the trained network can
be checkpointed with :mod:`repro.rl.checkpoints`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from ..config import (
    EnvConfig,
    GnnConfig,
    MctsConfig,
    NetworkConfig,
    TrainingConfig,
    WorkloadConfig,
)
from ..dag.generators import random_layered_dags
from ..dag.graph import TaskGraph
from ..env.observation import observation_size
from ..errors import ConfigError
from ..rl.gnn import GraphPolicyNetwork
from ..rl.imitation import ImitationTrainer
from ..rl.network import PolicyNetwork
from ..rl.ppo import PpoTrainer
from ..rl.reinforce import EpochStats, ReinforceTrainer
from ..utils.rng import SeedLike, as_generator, spawn
from .spear import SpearScheduler

__all__ = [
    "default_network",
    "default_graph_network",
    "training_graphs",
    "pretrain_network",
    "train_spear_network",
    "build_spear",
    "TRAINER_CLASSES",
]

#: ``--algo`` name -> rollout-trainer class (the trainer layer's registry).
TRAINER_CLASSES = {
    "reinforce": ReinforceTrainer,
    "ppo": PpoTrainer,
}


def default_network(
    env_config: EnvConfig | None = None,
    network_config: NetworkConfig | None = None,
    seed: SeedLike = None,
) -> PolicyNetwork:
    """A freshly initialized policy network matching ``env_config``'s
    observation layout and visibility window."""
    env_config = env_config if env_config is not None else EnvConfig()
    network_config = (
        network_config
        if network_config is not None
        else NetworkConfig(max_ready=env_config.max_ready)
    )
    if network_config.max_ready != env_config.max_ready:
        network_config = replace(network_config, max_ready=env_config.max_ready)
    size = observation_size(env_config)
    return PolicyNetwork(size, network_config, seed=seed)


def default_graph_network(
    env_config: EnvConfig | None = None,
    gnn_config: GnnConfig | None = None,
    seed: SeedLike = None,
) -> GraphPolicyNetwork:
    """A freshly initialized graph policy network for ``env_config``'s
    cluster shape (the DAG size never enters the parameterization)."""
    env_config = env_config if env_config is not None else EnvConfig()
    return GraphPolicyNetwork(
        len(env_config.cluster.capacities), gnn_config, seed=seed
    )


def training_graphs(
    training: TrainingConfig | None = None,
    workload: WorkloadConfig | None = None,
    seed: SeedLike = None,
) -> List[TaskGraph]:
    """The training set: ``num_examples`` random DAGs of
    ``example_num_tasks`` tasks (paper: 144 x 25)."""
    training = training if training is not None else TrainingConfig()
    base = workload if workload is not None else WorkloadConfig()
    workload = replace(base, num_tasks=training.example_num_tasks)
    return random_layered_dags(workload, training.num_examples, seed)


def pretrain_network(
    network: PolicyNetwork,
    graphs: List[TaskGraph],
    env_config: EnvConfig | None = None,
    training: TrainingConfig | None = None,
    seed: SeedLike = None,
) -> List[float]:
    """Imitation pre-training on the critical-path teacher; returns the
    supervised loss curve."""
    trainer = ImitationTrainer(
        network, env_config=env_config, training=training, seed=seed
    )
    return trainer.fit(graphs)


def train_spear_network(
    env_config: EnvConfig | None = None,
    training: TrainingConfig | None = None,
    workload: WorkloadConfig | None = None,
    seed: SeedLike = None,
    epochs: Optional[int] = None,
    log_every: int = 0,
    algo: str = "reinforce",
    policy: str = "mlp",
    gnn_config: GnnConfig | None = None,
):
    """Full Sec. IV pipeline; returns the network and the learning curve.

    The default (``algo="reinforce"``, ``policy="mlp"``) is the paper's
    recipe and is bit-identical to the historical implementation; the
    plug-in layers open up ``algo="ppo"`` and ``policy="gnn"`` in any
    combination.

    Args:
        env_config: cluster shape for the training environments.
        training: hyper-parameters; ``epochs`` overrides
            ``training.epochs`` for quick runs.
        workload: base workload for the training DAGs.
        seed: master seed (graphs, init, sampling all derive from it).
        log_every: print progress every N epochs (0 = silent).
        algo: rollout trainer — ``"reinforce"`` or ``"ppo"``.
        policy: model family — ``"mlp"`` (windowed) or ``"gnn"``
            (scale-invariant graph policy).
        gnn_config: architecture overrides for ``policy="gnn"``.
    """
    env_config = env_config if env_config is not None else EnvConfig(
        process_until_completion=True
    )
    training = training if training is not None else TrainingConfig()
    if algo not in TRAINER_CLASSES:
        raise ConfigError(
            f"unknown training algorithm {algo!r}; expected one of "
            f"{sorted(TRAINER_CLASSES)}"
        )
    if policy not in ("mlp", "gnn"):
        raise ConfigError(f"unknown policy family {policy!r}")
    rng = as_generator(seed)
    graph_rng, net_rng, imit_rng, rl_rng = spawn(rng, 4)

    graphs = training_graphs(training, workload, seed=graph_rng)
    if policy == "mlp":
        network = default_network(env_config, seed=net_rng)
    else:
        network = default_graph_network(env_config, gnn_config, seed=net_rng)
    pretrain_network(
        network, graphs, env_config=env_config, training=training, seed=imit_rng
    )
    trainer = TRAINER_CLASSES[algo](
        network, graphs, env_config=env_config, training=training, seed=rl_rng
    )
    history = trainer.train(epochs=epochs, log_every=log_every)
    return network, history


def build_spear(
    network: PolicyNetwork,
    config: MctsConfig | None = None,
    env_config: EnvConfig | None = None,
    seed: SeedLike = None,
) -> SpearScheduler:
    """Convenience constructor for a ready-to-run Spear scheduler."""
    return SpearScheduler(
        network, config=config, env_config=env_config, seed=seed
    )
