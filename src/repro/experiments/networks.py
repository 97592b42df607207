"""Trained-network caching for the experiment harness.

Fig. 8(b)'s trained network "is used in all the experiments of Spear", so
the harness trains once per (scale, seed) and caches the checkpoint — in
memory for the process and on disk under ``REPRO_CACHE_DIR`` (default
``.repro_cache/`` in the working directory) across processes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Tuple

from ..config import EnvConfig, TrainingConfig, WorkloadConfig
from ..core.pipeline import train_spear_network
from ..errors import CheckpointError
from ..rl.checkpoints import load_checkpoint, save_checkpoint
from ..rl.network import PolicyNetwork
from .scale import ExperimentScale

__all__ = ["cached_network", "cache_dir", "training_config_for_scale"]

_MEMORY_CACHE: Dict[Tuple[str, int], PolicyNetwork] = {}


def cache_dir() -> Path:
    """Directory for cached artifacts (override with ``REPRO_CACHE_DIR``)."""

    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def training_config_for_scale(scale: ExperimentScale) -> TrainingConfig:
    """The :class:`TrainingConfig` matching an experiment scale."""

    return TrainingConfig(
        num_examples=scale.train_examples,
        example_num_tasks=scale.train_tasks,
        epochs=scale.train_epochs,
        rollouts_per_example=scale.train_rollouts,
        supervised_epochs=scale.supervised_epochs,
        batch_size=4,
    )


def cached_network(scale: ExperimentScale, seed: int = 0) -> PolicyNetwork:
    """Return the trained network for ``scale``/``seed``, training it once.

    The network is trained for the experiments' one environment shape
    (``EnvConfig(process_until_completion=True)``), so ``(scale, seed)``
    is the whole cache key.  Lookup order: in-process memory, on-disk
    checkpoint, fresh training (which persists the checkpoint for next
    time).
    """

    key = (scale.label, seed)
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]

    path = cache_dir() / f"spear-network-{scale.label}-seed{seed}.npz"
    if path.exists():
        try:
            network = load_checkpoint(path)
            _MEMORY_CACHE[key] = network
            return network
        except CheckpointError:
            path.unlink()  # stale/corrupt: retrain below

    training = training_config_for_scale(scale)
    network, _ = train_spear_network(
        env_config=EnvConfig(process_until_completion=True),
        training=training,
        workload=WorkloadConfig(),
        seed=seed,
        epochs=scale.train_epochs,
    )
    save_checkpoint(network, path)
    _MEMORY_CACHE[key] = network
    return network
