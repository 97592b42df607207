"""Golden GNN / PPO numerics: the graph policy and PPO, bit for bit.

``rl_golden.json`` runs nothing of the graph policy's ``forward_group`` /
``backward_group`` or :class:`PpoTrainer`; ``gnn_golden.json`` pins those
(every float via ``float.hex()``):

* ``forward_backward`` — a fixed-seed :class:`GraphPolicyNetwork` on
  three recorded states (early, middle, late) of one 12-task DAG, run
  as one batch: the padded ``forward_group`` logits and every
  ``backward_group`` gradient array for a fixed upstream gradient;
* ``ppo_gnn`` — two PPO epochs on the GNN over 3 graphs x 2 rollouts
  with a minibatch of 16 steps, so a minibatch spans several graphs;
* ``reinforce_gnn`` — two REINFORCE epochs on the GNN;
* ``ppo_mlp`` — two PPO epochs on the MLP with ``entropy_bonus > 0``.

Each training run records every :class:`EpochStats` field, SHA-256
digests of the policy (and critic) parameters, and the trainer
generator's final ``bit_generator.state``.

Cut before the message-passing scatter became a rank-sliced gather and
PPO stopped forwarding each minibatch twice, so neither rewrite moved a
bit or a random draw.  Regenerated twice: CHANGES.md, "Train on
decisions" (the training cases) and "One graph-policy pass per PPO
minibatch" (the whole file).
"""

from __future__ import annotations

import numpy as np

from repro.config import GnnConfig, TrainingConfig, WorkloadConfig
from repro.core.pipeline import default_graph_network, default_network, training_graphs
from repro.dag.generators import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv
from repro.rl.ppo import PpoTrainer
from repro.rl.reinforce import ReinforceTrainer
from repro.rl.trajectories import rollout_trajectory
from tests.golden import epoch_rows, event_env, hex_array, params_digest

FILE = "gnn_golden.json"
LAYOUT = "indent"
NAMES = ("forward_backward", "ppo_gnn", "reinforce_gnn", "ppo_mlp")
CASES = {case: (FILE, case) for case in NAMES}

GRAPH_SEED = 1207
NETWORK_SEED = 41


def _gnn(seed: int):
    config = GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=8)
    return default_graph_network(event_env(), config, seed=seed)


def _forward_backward() -> dict:
    graph = random_layered_dag(
        WorkloadConfig(num_tasks=12, max_runtime=10, max_demand=10), seed=GRAPH_SEED
    )
    network = _gnn(NETWORK_SEED)
    # Every state of the episode, forced ones included (as a critic sees it).
    states = rollout_trajectory(
        SchedulingEnv(graph, event_env()),
        network.make_policy("sample", seed=7),
        max_steps=500,
        every_state=True,
    ).states
    picked = [states[0], states[len(states) // 2], states[-2]]
    ready_lists = [list(state.ready) for state in picked]
    logits = network.forward_group(*network.batch_inputs(picked), keep_cache=True)
    # Upstream gradient: fixed values on the real columns, exactly zero
    # on the padding (what every masked-softmax loss produces).
    dlogits = np.random.default_rng(5).normal(size=logits.shape)
    for row, ready in enumerate(ready_lists):
        dlogits[row, len(ready) + 1 :] = 0.0
    grads = network.backward_group(dlogits)
    return {
        "num_steps": len(states),
        "ready_lists": ready_lists,
        "params_digest": params_digest(network.params),
        "logits": hex_array(logits),
        "grads": {key: hex_array(value) for key, value in grads.items()},
    }


def _graphs(num_tasks: int, count: int, seed: int):
    """``count`` seeded training DAGs of ``num_tasks`` tasks."""
    return training_graphs(
        TrainingConfig(num_examples=count, example_num_tasks=num_tasks),
        WorkloadConfig(num_tasks=num_tasks, max_runtime=10, max_demand=10),
        seed=seed,
    )


def _train(trainer_class, network, graphs, seed: int, **training) -> dict:
    """Train on ``_graphs(*graphs)``; every epoch, digest and the final
    generator state."""
    trainer = trainer_class(
        network,
        _graphs(*graphs),
        env_config=event_env(),
        training=TrainingConfig(**training),
        seed=seed,
    )
    record = {
        "epochs": epoch_rows(trainer.train()),
        "policy_digest": params_digest(trainer.network.params),
        "generator_state": trainer._rng.bit_generator.state,
    }
    critic = getattr(trainer, "value_network", None)
    if critic is not None:
        record["critic_digest"] = params_digest(critic.params)
    return record


def _ppo_gnn() -> dict:
    # A tight clip and a large step, so the clip binds on some samples
    # and both branches of the weight rule are pinned.
    return _train(
        PpoTrainer, _gnn(NETWORK_SEED + 1), (10, 3, 77), 19,
        learning_rate=2e-3, rollouts_per_example=2, epochs=2, batch_size=3,
        ppo_clip=0.02, ppo_epochs=2, ppo_minibatch=16,
    )


def _reinforce_gnn() -> dict:
    return _train(
        ReinforceTrainer, _gnn(NETWORK_SEED + 2), (9, 3, 78), 23,
        rollouts_per_example=3, epochs=2, batch_size=2,
    )


def _ppo_mlp() -> dict:
    return _train(
        PpoTrainer, default_network(event_env(), seed=NETWORK_SEED + 3), (8, 2, 79), 29,
        rollouts_per_example=2, epochs=2, batch_size=2, ppo_epochs=2,
        ppo_minibatch=16, entropy_bonus=0.01,
    )


def compute(case: str) -> dict:
    """The case's tree, built by the module's ``_<case>()``."""
    return globals()[f"_{case}"]()
