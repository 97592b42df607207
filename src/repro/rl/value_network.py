"""A value network: state -> predicted remaining makespan.

:class:`repro.rl.ppo.PpoTrainer`'s GAE critic: a small MLP regressor
fitted on (state, observed remaining-makespan) pairs from the trainer's
own rollouts.  Spear itself plays every rollout to termination
(Sec. III-A) and uses no value estimate (DESIGN.md Sec. 16.8).

Architecture mirrors the policy trunk (ReLU MLP) with a single linear
output, expressed over the shared :class:`repro.rl.modules.MLPStack`;
training is mean-squared-error with rmsprop.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..utils.rng import SeedLike, as_generator
from .modules import MLPStack
from .optimizers import RmsProp, clip_global_norm

__all__ = ["ValueNetwork"]


class ValueNetwork:
    """MLP regressor predicting the remaining makespan of a state.

    Args:
        input_size: observation dimensionality (same featurization as the
            policy network).
        hidden_sizes: ReLU hidden widths (default: a slim 64/32 trunk —
            value targets are smoother than action preferences).
        seed: weight-initialization seed.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Tuple[int, ...] = (64, 32),
        seed: SeedLike = None,
    ) -> None:
        if input_size < 1:
            raise ConfigError("input_size must be >= 1")
        if not hidden_sizes or any(h < 1 for h in hidden_sizes):
            raise ConfigError("hidden_sizes must be positive")
        self.input_size = input_size
        self.hidden_sizes = tuple(hidden_sizes)
        rng = as_generator(seed)
        self._stack = MLPStack([input_size, *hidden_sizes, 1], rng)
        #: Shared live parameter dict (the optimizer mutates it in place).
        self.params: Dict[str, np.ndarray] = self._stack.params
        self.num_layers = self._stack.num_layers
        # Target normalization, fit on the first training batch.
        self._target_mean = 0.0
        self._target_std = 1.0
        self._fitted = False

    # ------------------------------------------------------------------ #

    def _forward(self, states: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        x = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if x.shape[1] != self.input_size:
            raise ConfigError(
                f"state has {x.shape[1]} features, expected {self.input_size}"
            )
        return self._stack.forward(x, keep_cache)[:, 0]

    def predict(self, states: np.ndarray) -> np.ndarray:
        """Predicted remaining makespans (slots, clipped to >= 0)."""
        normalized = self._forward(states)
        return np.maximum(
            normalized * self._target_std + self._target_mean, 0.0
        )

    # ------------------------------------------------------------------ #

    def fit(
        self,
        states: np.ndarray,
        targets: Sequence[float],
        epochs: int = 50,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        seed: SeedLike = None,
        max_grad_norm: float = 0.0,
    ) -> List[float]:
        """Train by mini-batch MSE; returns per-epoch losses.

        Targets are z-normalized internally using the first ``fit`` call's
        statistics, so repeated fits refine the same scale.  A positive
        ``max_grad_norm`` clips each mini-batch gradient to that global
        L2 norm before the optimizer step.
        """

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        targets_arr = np.asarray(targets, dtype=np.float64)
        if states.shape[0] != targets_arr.shape[0]:
            raise ConfigError("states and targets must align")
        if states.shape[0] == 0:
            raise ConfigError("cannot fit on an empty dataset")
        if not self._fitted:
            self._target_mean = float(targets_arr.mean())
            self._target_std = float(max(targets_arr.std(), 1e-6))
            self._fitted = True
        normalized_targets = (targets_arr - self._target_mean) / self._target_std

        optimizer = RmsProp(learning_rate=learning_rate)
        rng = as_generator(seed)
        losses: List[float] = []
        n = states.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                predictions = self._forward(states[batch], keep_cache=True)
                errors = predictions - normalized_targets[batch]
                epoch_losses.append(float(np.mean(errors**2)))
                # Backprop MSE: dL/dout = 2 * err / B.
                delta = (2.0 * errors / len(batch))[:, None]
                grads = self._stack.backward(delta)
                assert isinstance(grads, dict)
                if max_grad_norm > 0.0:
                    clip_global_norm(grads, max_grad_norm)
                optimizer.step(self.params, grads)
            losses.append(float(np.mean(epoch_losses)))
        return losses

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(v.size for v in self.params.values())
