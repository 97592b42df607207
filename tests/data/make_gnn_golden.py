"""Golden GNN / PPO numerics: fixed-seed runs asserted byte-for-byte.

``rl_golden.json`` pins the MLP, the value network, imitation and
REINFORCE on the MLP; nothing there runs the graph policy's
``forward_group`` / ``backward_group`` or :class:`PpoTrainer`.  The
committed ``gnn_golden.json`` pins those (every float serialized via
``float.hex()``, so equality is bit equality, not tolerance):

* ``forward_backward`` — a fixed-seed :class:`GraphPolicyNetwork` on
  three recorded states (early, middle, late) of one 12-task DAG, run
  as one batch: the padded ``forward_group`` logits and every
  ``backward_group`` gradient array for a fixed upstream gradient.
* ``ppo_gnn`` — two PPO epochs on the GNN over 3 graphs x 2 rollouts
  with a minibatch of 16 steps, so a minibatch spans several graphs.
* ``reinforce_gnn`` — two REINFORCE epochs on the GNN.
* ``ppo_mlp`` — two PPO epochs on the MLP with ``entropy_bonus > 0``.

Each training run records every :class:`EpochStats` field, SHA-256
digests of the policy (and critic) parameters, and the trainer
generator's final ``bit_generator.state``.

It was generated on the commit before the message-passing scatter and
the PPO minibatch forward were rewritten.  The three training cases
were regenerated when the trainers moved to decided rows (forced steps
are no longer forwarded; the same estimator, DESIGN.md Sec. 16.3):
every integer field, makespan, generator state and critic digest
stayed, and only mean entropies, mean losses and policy digests moved,
by float summation order.  The whole file was regenerated once more
when a step batch became one pass over the disjoint union of its
states' graphs and PPO began reading ``pi_old`` from the recorded rows
(DESIGN.md Sec. 16.2, 16.3): ``forward_backward`` kept its logits and
every gradient array but ``head.c`` (one ulp, the head's gradient now
sums over ready rows only); the training cases kept every integer
field, makespan, generator state and critic digest, and moved only
mean entropies, mean losses and policy digests.  Regenerate (only when
an intentional numeric change lands) with::

    PYTHONPATH=src python tests/data/make_gnn_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "gnn_golden.json"

GRAPH_SEED = 1207
NETWORK_SEED = 41


def _hex_array(array: np.ndarray) -> list:
    """``[shape, flat float.hex() strings]`` (bit-exact round trip)."""
    array = np.asarray(array, dtype=np.float64)
    return [list(array.shape), [float(x).hex() for x in array.ravel()]]


def _params_digest(params: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(params):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(params[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def _env_config():
    from repro.config import EnvConfig

    return EnvConfig(process_until_completion=True)


def _gnn(seed: int):
    from repro.config import GnnConfig
    from repro.core.pipeline import default_graph_network

    return default_graph_network(
        _env_config(),
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=8),
        seed=seed,
    )


def _forward_backward_case() -> dict:
    from repro.config import WorkloadConfig
    from repro.dag.generators import random_layered_dag
    from repro.env.scheduling_env import SchedulingEnv
    from repro.rl.trajectories import rollout_trajectory

    graph = random_layered_dag(
        WorkloadConfig(num_tasks=12, max_runtime=10, max_demand=10),
        seed=GRAPH_SEED,
    )
    network = _gnn(NETWORK_SEED)
    # Every state of the episode, forced ones included (as a critic sees it).
    states = rollout_trajectory(
        SchedulingEnv(graph, _env_config()),
        network.make_policy("sample", seed=7),
        max_steps=500,
        every_state=True,
    ).states
    picked = [states[0], states[len(states) // 2], states[-2]]
    ready_lists = [list(state.ready) for state in picked]
    logits = network.forward_group(
        *network.batch_inputs(picked), keep_cache=True
    )
    # Upstream gradient: fixed values on the real columns, exactly zero
    # on the padding (what every masked-softmax loss produces).
    dlogits = np.random.default_rng(5).normal(size=logits.shape)
    for row, ready in enumerate(ready_lists):
        dlogits[row, len(ready) + 1 :] = 0.0
    grads = network.backward_group(dlogits)
    return {
        "num_steps": len(states),
        "ready_lists": ready_lists,
        "params_digest": _params_digest(network.params),
        "logits": _hex_array(logits),
        "grads": {key: _hex_array(value) for key, value in sorted(grads.items())},
    }


def _graphs(num_tasks: int, count: int, seed: int):
    from repro.config import TrainingConfig, WorkloadConfig
    from repro.core.pipeline import training_graphs

    return training_graphs(
        TrainingConfig(num_examples=count, example_num_tasks=num_tasks),
        WorkloadConfig(num_tasks=num_tasks, max_runtime=10, max_demand=10),
        seed=seed,
    )


def _run(trainer) -> dict:
    history = trainer.train()
    record = {
        "epochs": [
            {
                key: (float(value).hex() if isinstance(value, float) else value)
                for key, value in asdict(stats).items()
            }
            for stats in history
        ],
        "policy_digest": _params_digest(trainer.network.params),
        "generator_state": trainer._rng.bit_generator.state,
    }
    critic = getattr(trainer, "value_network", None)
    if critic is not None:
        record["critic_digest"] = _params_digest(critic.params)
    return record


def _ppo_gnn_case() -> dict:
    from repro.config import TrainingConfig
    from repro.rl.ppo import PpoTrainer

    # A tight clip and a large step, so the clip binds on some samples
    # and both branches of the weight rule are pinned.
    training = TrainingConfig(
        learning_rate=2e-3,
        rollouts_per_example=2,
        epochs=2,
        batch_size=3,
        ppo_clip=0.02,
        ppo_epochs=2,
        ppo_minibatch=16,
    )
    trainer = PpoTrainer(
        _gnn(NETWORK_SEED + 1),
        _graphs(10, 3, seed=77),
        env_config=_env_config(),
        training=training,
        seed=19,
    )
    return _run(trainer)


def _reinforce_gnn_case() -> dict:
    from repro.config import TrainingConfig
    from repro.rl.reinforce import ReinforceTrainer

    training = TrainingConfig(rollouts_per_example=3, epochs=2, batch_size=2)
    trainer = ReinforceTrainer(
        _gnn(NETWORK_SEED + 2),
        _graphs(9, 3, seed=78),
        env_config=_env_config(),
        training=training,
        seed=23,
    )
    return _run(trainer)


def _ppo_mlp_case() -> dict:
    from repro.config import TrainingConfig
    from repro.core.pipeline import default_network
    from repro.rl.ppo import PpoTrainer

    training = TrainingConfig(
        rollouts_per_example=2,
        epochs=2,
        batch_size=2,
        ppo_epochs=2,
        ppo_minibatch=16,
        entropy_bonus=0.01,
    )
    trainer = PpoTrainer(
        default_network(_env_config(), seed=NETWORK_SEED + 3),
        _graphs(8, 2, seed=79),
        env_config=_env_config(),
        training=training,
        seed=29,
    )
    return _run(trainer)


CASES = {
    "forward_backward": _forward_backward_case,
    "ppo_gnn": _ppo_gnn_case,
    "reinforce_gnn": _reinforce_gnn_case,
    "ppo_mlp": _ppo_mlp_case,
}


def compute_golden() -> dict:
    return {name: case() for name, case in CASES.items()}


def serialize(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def main() -> None:
    GOLDEN_PATH.write_text(serialize(compute_golden()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
