"""Golden RL traces: fixed-seed training runs asserted byte-for-byte.

The committed ``rl_golden.json`` pins the numerics of the differentiable
module stack and both trainers *before* the pluggable-policy refactor:

* ``network`` — a fixed-seed :class:`PolicyNetwork`'s logits, masked
  probabilities and policy-gradient arrays on a deterministic input
  batch (every float serialized via ``float.hex()``, so equality is bit
  equality, not tolerance).
* ``value`` — a fixed-seed :class:`ValueNetwork` fit: per-epoch losses
  and post-fit predictions.
* ``imitation`` — the supervised loss curve of a tiny fixed-seed fit.
* ``reinforce`` — three epochs of fixed-seed REINFORCE: every
  :class:`EpochStats` field plus a SHA-256 digest of the final
  parameters (params are large; the digest pins them exactly).

The ``reinforce`` case was regenerated once, on purpose, when the
trainers moved to decided rows (forced steps are no longer forwarded;
the same estimator, DESIGN.md Sec. 16.3): every makespan, trajectory
count and greedy evaluation stayed, and only the mean entropies, the
mean losses and the parameter digest moved, by float summation order.
Any other refactor of ``repro.rl`` must leave all of these
byte-identical.  Regenerate (only when an intentional numeric change
lands) with::

    PYTHONPATH=src python tests/data/make_rl_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "rl_golden.json"


def _hex_array(array: np.ndarray) -> list:
    """Nested lists of ``float.hex()`` strings (bit-exact round trip)."""
    flat = [float(x).hex() for x in np.asarray(array, dtype=np.float64).ravel()]
    return [list(np.asarray(array).shape), flat]


def _params_digest(params: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(params):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(params[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def _network_case() -> dict:
    from repro.config import NetworkConfig
    from repro.rl.network import PolicyNetwork

    config = NetworkConfig(hidden_sizes=(16, 8), max_ready=5)
    network = PolicyNetwork(12, config, seed=123)
    rng = np.random.default_rng(99)
    states = rng.normal(size=(4, 12))
    masks = np.ones((4, config.num_actions), dtype=bool)
    masks[0, 3:] = False
    masks[1, :2] = False
    logits = network.logits(states)
    probs = network.probabilities(states, masks)
    actions = [0, 2, 5, 1]
    weights = [1.0, -0.5, 2.0, 0.25]
    grads, nll = network.policy_gradient(states, masks, actions, weights)
    return {
        "params_digest": _params_digest(network.params),
        "logits": _hex_array(logits),
        "probs": _hex_array(probs),
        "nll": float(nll).hex(),
        "grads": {key: _hex_array(value) for key, value in sorted(grads.items())},
    }


def _value_case() -> dict:
    from repro.rl.value_network import ValueNetwork

    network = ValueNetwork(6, hidden_sizes=(8, 4), seed=7)
    rng = np.random.default_rng(11)
    states = rng.normal(size=(32, 6))
    targets = np.abs(rng.normal(loc=50.0, scale=10.0, size=32))
    losses = network.fit(states, targets, epochs=4, batch_size=8, seed=3)
    predictions = network.predict(states[:5])
    return {
        "params_digest": _params_digest(network.params),
        "losses": [float(x).hex() for x in losses],
        "predictions": _hex_array(predictions),
    }


def _training_setup():
    from repro.config import EnvConfig, TrainingConfig, WorkloadConfig
    from repro.core.pipeline import default_network, training_graphs

    env_config = EnvConfig(process_until_completion=True)
    training = TrainingConfig(
        num_examples=2,
        example_num_tasks=8,
        rollouts_per_example=3,
        epochs=3,
        batch_size=2,
        supervised_epochs=2,
    )
    workload = WorkloadConfig(num_tasks=8, max_runtime=10, max_demand=10)
    graphs = training_graphs(training, workload, seed=2024)
    network = default_network(env_config, seed=17)
    return env_config, training, graphs, network


def _imitation_case() -> dict:
    from repro.rl.imitation import ImitationTrainer

    env_config, training, graphs, network = _training_setup()
    trainer = ImitationTrainer(
        network, env_config=env_config, training=training, seed=5
    )
    losses = trainer.fit(graphs)
    records = trainer.collect(graphs)
    return {
        "losses": [float(x).hex() for x in losses],
        "accuracy": float(trainer.accuracy(records)).hex(),
        "params_digest": _params_digest(network.params),
    }


def _reinforce_case() -> dict:
    from repro.rl.reinforce import ReinforceTrainer

    env_config, training, graphs, network = _training_setup()
    trainer = ReinforceTrainer(
        network,
        graphs,
        env_config=env_config,
        training=training,
        seed=31,
    )
    history = trainer.train()
    epochs = [
        {
            "epoch": stats.epoch,
            "mean_makespan": float(stats.mean_makespan).hex(),
            "best_makespan": stats.best_makespan,
            "worst_makespan": stats.worst_makespan,
            "mean_entropy": float(stats.mean_entropy).hex(),
            "num_trajectories": stats.num_trajectories,
            "mean_loss": float(stats.mean_loss).hex(),
        }
        for stats in history
    ]
    evaluation = trainer.evaluate(graphs)
    return {
        "epochs": epochs,
        "evaluation": [int(m) for m in evaluation],
        "params_digest": _params_digest(network.params),
    }


def compute_golden() -> dict:
    return {
        "network": _network_case(),
        "value": _value_case(),
        "imitation": _imitation_case(),
        "reinforce": _reinforce_case(),
    }


def serialize(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def main() -> None:
    GOLDEN_PATH.write_text(serialize(compute_golden()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
