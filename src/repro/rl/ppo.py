"""PPO with GAE: the modern baseline the plug-in trainer layer enables.

REINFORCE (the paper's algorithm) takes exactly one gradient step per
batch of experience — anything more would leave the on-policy regime.
PPO's clipped surrogate objective (Schulman et al., 2017) makes the
extra epochs safe: the ratio ``r_t = pi(a_t|s_t) / pi_old(a_t|s_t)`` is
clipped to ``[1 - eps, 1 + eps]``, so a minibatch stops pushing once the
policy has moved that far, and the same rollouts fund
``ppo_epochs x`` minibatch passes.  Advantages come from generalized
advantage estimation over a learned critic (a :class:`ValueNetwork` on
the model's ``value_features``) instead of the cross-rollout mean
baseline.

The exact surrogate gradient is obtained through
``policy_gradient_steps`` without a backward pass of its own: for active
samples (clip not binding) the per-sample gradient of ``-r_t A_t`` is
``-A_t r_t d log pi``, i.e. a weighted NLL gradient with the *detached*
weight ``A_t r_t``; clipped samples contribute zero.  Those weights
depend on ``pi(a_t|s_t)`` at the *current* parameters, which only a
forward pass knows — so the trainer hands ``policy_gradient_steps`` the
clip rule as a function of the chosen-action probabilities instead of a
weight vector, and the network evaluates it between the forward pass it
has to run anyway and the backward pass REINFORCE uses.  One forward per
minibatch (for the GNN, over the disjoint union of its states' graphs),
and PPO still works for every model implementing the step-batch
interface (MLP and GNN alike).  ``pi_old`` needs no forward at all: each
decision recorded the probability its rollout drew the action with, at
the parameters the update starts from.

Minibatches are drawn over every step, but only their decisions are
forwarded: a forced step's probability is exactly 1 under any
parameters, so its ratio is exactly 1 and its gradient exactly 0.  It
still enters the surrogate-loss statistic (at ratio 1) and the
minibatch's length stays the divisor, so the update is the one the
all-step minibatch gives (DESIGN.md Sec. 16.3).  The critic, unlike the
policy, reads every state: GAE needs a value per step.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..config import EnvConfig, TrainingConfig
from ..dag.graph import TaskGraph
from ..utils.rng import SeedLike
from .trainer import EpochStats, Trainer, iterate_minibatches
from .trajectories import Trajectory, returns_to_go
from .value_network import ValueNetwork

__all__ = ["PpoTrainer", "gae_advantages", "EpochStats"]


def gae_advantages(
    rewards: np.ndarray,
    values: np.ndarray,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Generalized advantage estimation for one episode.

    ``values`` are state values *in return space* (``V(s_t) ~ G_t``, so
    negative here: returns are negated makespans); the terminal state
    bootstraps zero.
    """
    deltas = rewards + gamma * np.append(values[1:], 0.0) - values
    advantages = np.empty_like(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        advantages[t] = acc
    return advantages


class PpoTrainer(Trainer):
    """Clipped-surrogate PPO over a fixed set of example DAGs.

    Args:
        network: any policy model implementing the step-batch interface
            (:class:`PolicyNetwork` or :class:`GraphPolicyNetwork`).
        graphs: the training examples.
        env_config: environment shape used for every episode.
        training: hyper-parameters — the PPO knobs are ``ppo_clip``,
            ``ppo_epochs``, ``ppo_minibatch``, ``gamma``, ``gae_lambda``,
            ``normalize_advantages`` and the critic's
            ``value_learning_rate`` / ``value_epochs``.
        seed: master seed for sampling and minibatch shuffles.

    With telemetry active the per-epoch curves report as ``ppo.loss``
    (mean clipped surrogate), ``ppo.entropy``, ``ppo.return`` and
    ``ppo.baseline``.
    """

    algo = "ppo"
    has_critic = True

    def __init__(
        self,
        network,
        graphs: Sequence[TaskGraph],
        env_config: EnvConfig | None = None,
        training: TrainingConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(network, graphs, env_config, training, seed)
        #: The GAE critic: remaining makespan from the model's features.
        self.value_network = ValueNetwork(
            network.value_feature_size,
            seed=self._rng,
        )

    # ------------------------------------------------------------------ #

    def _advantages(
        self, trajectories: Sequence[Trajectory]
    ) -> List[np.ndarray]:
        """GAE over the critic (return-space values are negated makespans)."""
        out = []
        for trajectory in trajectories:
            features = self.network.value_features(trajectory.states)
            values = -self.value_network.predict(features)
            out.append(
                gae_advantages(
                    trajectory.rewards, values, self.training.gamma,
                    self.training.gae_lambda,
                )
            )
        return out

    def _update_batch(
        self,
        trajectories: Sequence[Trajectory],
        advantage_arrays: Sequence[np.ndarray],
    ) -> Tuple[float, float]:
        """``ppo_epochs`` clipped-surrogate minibatch passes, then refit
        the critic; returns (mean policy entropy, mean surrogate loss)."""
        training = self.training
        decisions, actions, rows = self.flatten_decisions(trajectories)
        advantages = np.concatenate(advantage_arrays)
        if training.normalize_advantages and advantages.size > 1:
            advantages = (advantages - advantages.mean()) / (
                advantages.std() + 1e-8
            )
        # pi_old: the probability each rollout drew its action with, at
        # the parameters the update starts from (a batched recompute is
        # equal in value, not in its last bits).
        old_chosen = np.fromiter(
            (d.probability for d in decisions),
            dtype=np.float64,
            count=len(decisions),
        )
        # Each step's index in ``decisions``; -1 marks a forced step.
        decision_of = np.full(len(advantages), -1)
        decision_of[rows] = np.arange(len(decisions))
        clip = training.ppo_clip
        losses: List[float] = []
        for _ in range(training.ppo_epochs):
            for batch in iterate_minibatches(
                self._rng, len(advantages), training.ppo_minibatch
            ):
                of_batch = decision_of[batch]
                # The minibatch positions of its decisions, and their
                # indices in ``decisions``.
                decided = np.flatnonzero(of_batch >= 0)
                picked = of_batch[decided]
                sub = [decisions[i] for i in picked]
                batch_adv = advantages[batch]
                sub_adv = batch_adv[decided]
                sub_old = old_chosen[picked]
                # A forced step's ratio is exactly 1 (pi = pi_old = 1).
                ratio = np.ones(len(batch), dtype=np.float64)

                def clip_rule(
                    positions: np.ndarray, chosen: np.ndarray
                ) -> np.ndarray:
                    """Detached surrogate weights of the minibatch's
                    decisions: ``A_t r_t`` where the clip is not binding,
                    zero where it is (see module docstring)."""
                    r = chosen / sub_old[positions]
                    ratio[decided[positions]] = r
                    adv = sub_adv[positions]
                    active = ~(
                        ((adv > 0) & (r > 1.0 + clip))
                        | ((adv < 0) & (r < 1.0 - clip))
                    )
                    return np.where(active, adv * r, 0.0)

                grads, _ = self.network.policy_gradient_steps(
                    sub, actions[picked], clip_rule, len(batch)
                )
                surrogate = np.minimum(
                    ratio * batch_adv,
                    np.clip(ratio, 1.0 - clip, 1.0 + clip) * batch_adv,
                )
                losses.append(float(-surrogate.mean()))
                if training.entropy_bonus > 0.0:
                    entropy_grads = self.network.entropy_gradient_steps(
                        sub, len(batch)
                    )
                    for key in grads:
                        grads[key] -= (
                            training.entropy_bonus * entropy_grads[key]
                        )
                self.apply_gradients(grads)
        # The critic's target is the discounted return GAE bootstraps with.
        returns = np.concatenate(
            [returns_to_go(t, training.gamma) for t in trajectories]
        )
        self.value_network.fit(
            self.network.value_features(
                [state for t in trajectories for state in t.states]
            ),
            -returns,
            epochs=training.value_epochs,
            batch_size=training.ppo_minibatch,
            learning_rate=training.value_learning_rate,
            seed=self._rng,
            max_grad_norm=training.max_grad_norm,
        )
        return self.mean_entropy(decisions, len(advantages)), float(
            np.mean(losses)
        )
