"""REINFORCE with a rollout-average baseline (Sec. II-B, IV, Fig. 8(b)).

Per epoch, for every training example (a DAG), the trainer samples
``rollouts_per_example`` trajectories (paper: 20) and uses the *per-step
mean return across those rollouts* as the baseline — "we simulate 20 times
and average the trajectories to obtain the baseline".  The advantage of a
step is its reward-to-go minus the baseline at the same step index, and
the policy-gradient update of Eq. (3) is applied with rmsprop.

The collection/epoch machinery lives in :class:`repro.rl.trainer.Trainer`;
this subclass is just the REINFORCE loss: one weighted-NLL gradient step
per graph-batch, with an optional entropy bonus.

The learning-curve experiment (Fig. 8(b)) is a thin wrapper over
:meth:`ReinforceTrainer.train`: it records the mean makespan over all
trajectories per epoch, which "steadily decreases with the number of
iterations" and eventually beats Tetris and SJF.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .trainer import EpochStats, Trainer
from .trajectories import Trajectory

__all__ = ["ReinforceTrainer", "EpochStats"]


class ReinforceTrainer(Trainer):
    """Policy-gradient training over a fixed set of example DAGs.

    Args:
        network: policy network (typically pre-trained by imitation);
            either the MLP :class:`PolicyNetwork` or a
            :class:`repro.rl.gnn.GraphPolicyNetwork`.
        graphs: the training examples (paper: 144 random 25-task DAGs).
        env_config: environment shape used for every episode.
        training: hyper-parameters (learning rate, rollouts, batch size).
        seed: master seed for sampling.

    With telemetry active each epoch streams the ``reinforce.loss`` /
    ``reinforce.entropy`` / ``reinforce.return`` / ``reinforce.baseline``
    series.
    """

    algo = "reinforce"

    # ------------------------------------------------------------------ #

    def _update_batch(
        self,
        trajectories: Sequence[Trajectory],
        advantage_arrays: Sequence[np.ndarray],
    ) -> Tuple[float, float]:
        """One policy-gradient step over all steps of all trajectories;
        returns (mean policy entropy, weighted NLL surrogate loss).

        Only the decisions are forwarded: a forced step adds exactly 0 to
        every sum, and the step count stays the divisor."""
        decisions, actions, rows = self.flatten_decisions(trajectories)
        advantages = np.concatenate(advantage_arrays)
        total = len(advantages)
        grads, nll = self.network.policy_gradient_steps(
            decisions, actions, advantages[rows], total
        )
        if self.training.entropy_bonus > 0.0:
            entropy_grads = self.network.entropy_gradient_steps(decisions, total)
            for key in grads:
                grads[key] -= self.training.entropy_bonus * entropy_grads[key]
        self.apply_gradients(grads)
        return self.mean_entropy(decisions, total), float(nll)
