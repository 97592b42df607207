"""Deep reinforcement learning for scheduling (Sec. III-D, IV).

A from-scratch NumPy reproduction of the paper's Theano model:

* :class:`PolicyNetwork` — 3 hidden layers (256/32/32, ReLU) + softmax
  with action masking, manual backprop.
* :class:`RmsProp` — the optimizer with the paper's hyper-parameters.
* :class:`NetworkPolicy` — drives a :class:`repro.env.SchedulingEnv` with
  the network (sampling or greedy).
* :class:`ImitationTrainer` — supervised pre-training on the critical-path
  heuristic ("it is necessary to teach the network to imitate a greedy
  heuristic approach", Sec. IV).
* :class:`ReinforceTrainer` — REINFORCE with a 20-rollout average baseline.

The package is organized as three pluggable layers (DESIGN.md Sec. 16):

* **models** — :mod:`repro.rl.modules` (differentiable NumPy module
  stack) underneath :class:`PolicyNetwork`, :class:`ValueNetwork` and the
  scale-invariant :class:`GraphPolicyNetwork`;
* **trainers** — the :class:`Trainer` skeleton with
  :class:`ReinforceTrainer`, :class:`PpoTrainer` and
  :class:`ImitationTrainer` as thin loss definitions;
* **inference** — the per-episode policy adapters; inside a search, and
  inside a trainer's rollout group on one graph, their single-state
  step reads a memo scoped to that extent and rides the fused playout
  (DESIGN.md Sec. 16.4, 16.6, 16.7).
"""

from .network import PolicyNetwork
from .gnn import GraphNetworkPolicy, GraphPolicyNetwork
from .optimizers import RmsProp, clip_global_norm
from .agent import NetworkPolicy
from .trainer import Trainer, TrainerBase
from .imitation import ImitationTrainer
from .reinforce import ReinforceTrainer, EpochStats
from .ppo import PpoTrainer
from .checkpoints import (
    save_checkpoint,
    load_checkpoint,
    load_policy_checkpoint,
)
from .value_network import ValueNetwork

__all__ = [
    "PolicyNetwork",
    "GraphPolicyNetwork",
    "GraphNetworkPolicy",
    "RmsProp",
    "clip_global_norm",
    "NetworkPolicy",
    "Trainer",
    "TrainerBase",
    "ImitationTrainer",
    "ReinforceTrainer",
    "PpoTrainer",
    "EpochStats",
    "save_checkpoint",
    "load_checkpoint",
    "load_policy_checkpoint",
    "ValueNetwork",
]
