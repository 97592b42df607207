"""Golden RL numerics: the MLP stack and its trainers, bit for bit.

``rl_golden.json`` pins the numerics of the differentiable module stack
and both historical trainers (every float via ``float.hex()``, so
equality is bit equality, not tolerance):

* ``network`` — a fixed-seed :class:`PolicyNetwork`'s logits, masked
  probabilities and policy-gradient arrays on a deterministic batch;
* ``value`` — a fixed-seed :class:`ValueNetwork` fit: per-epoch losses
  and post-fit predictions;
* ``imitation`` — the supervised loss curve of a tiny fixed-seed fit;
* ``reinforce`` — three epochs of fixed-seed REINFORCE: every
  :class:`EpochStats` field plus a SHA-256 digest of the final
  parameters (params are large; the digest pins them exactly).

``reinforce`` was regenerated once: CHANGES.md, "Train on decisions".
"""

from __future__ import annotations

import numpy as np

from repro.config import NetworkConfig, TrainingConfig, WorkloadConfig
from repro.core.pipeline import default_network, training_graphs
from repro.rl.imitation import ImitationTrainer
from repro.rl.network import PolicyNetwork
from repro.rl.reinforce import ReinforceTrainer
from repro.rl.value_network import ValueNetwork
from tests.golden import epoch_rows, event_env, hex_array, params_digest

FILE = "rl_golden.json"
LAYOUT = "indent"
CASES = {case: (FILE, case) for case in ("network", "value", "imitation", "reinforce")}


def _network() -> dict:
    config = NetworkConfig(hidden_sizes=(16, 8), max_ready=5)
    network = PolicyNetwork(12, config, seed=123)
    states = np.random.default_rng(99).normal(size=(4, 12))
    masks = np.ones((4, config.num_actions), dtype=bool)
    masks[0, 3:] = False
    masks[1, :2] = False
    logits = network.logits(states)
    probs = network.probabilities(states, masks)
    grads, nll = network.policy_gradient(
        states, masks, [0, 2, 5, 1], [1.0, -0.5, 2.0, 0.25]
    )
    return {
        "params_digest": params_digest(network.params),
        "logits": hex_array(logits),
        "probs": hex_array(probs),
        "nll": float(nll).hex(),
        "grads": {key: hex_array(value) for key, value in grads.items()},
    }


def _value() -> dict:
    network = ValueNetwork(6, hidden_sizes=(8, 4), seed=7)
    rng = np.random.default_rng(11)
    states = rng.normal(size=(32, 6))
    targets = np.abs(rng.normal(loc=50.0, scale=10.0, size=32))
    losses = network.fit(states, targets, epochs=4, batch_size=8, seed=3)
    return {
        "params_digest": params_digest(network.params),
        "losses": [float(x).hex() for x in losses],
        "predictions": hex_array(network.predict(states[:5])),
    }


def _training_setup():
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
    return training, graphs, default_network(event_env(), seed=17)


def _imitation() -> dict:
    training, graphs, network = _training_setup()
    trainer = ImitationTrainer(network, env_config=event_env(), training=training, seed=5)
    losses = trainer.fit(graphs)
    records = trainer.collect(graphs)
    return {
        "losses": [float(x).hex() for x in losses],
        "accuracy": float(trainer.accuracy(records)).hex(),
        "params_digest": params_digest(network.params),
    }


def _reinforce() -> dict:
    training, graphs, network = _training_setup()
    trainer = ReinforceTrainer(
        network, graphs, env_config=event_env(), training=training, seed=31
    )
    return {
        "epochs": epoch_rows(trainer.train()),
        "evaluation": [int(m) for m in trainer.evaluate(graphs)],
        "params_digest": params_digest(network.params),
    }


def compute(case: str) -> dict:
    """The case's tree, built by the module's ``_<case>()``."""
    return globals()[f"_{case}"]()
