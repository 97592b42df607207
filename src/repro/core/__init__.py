"""Spear: the paper's primary contribution — MCTS guided by a trained DRL
policy in both the expansion and rollout steps (Sec. III)."""

from .guidance import NetworkExpansion, NetworkRollout
from .spear import SpearScheduler
from .pipeline import (
    default_network,
    training_graphs,
    pretrain_network,
    train_spear_network,
    build_spear,
)

__all__ = [
    "NetworkExpansion",
    "NetworkRollout",
    "SpearScheduler",
    "default_network",
    "training_graphs",
    "pretrain_network",
    "train_spear_network",
    "build_spear",
]
