"""Supervised pre-training on a heuristic teacher (Sec. IV).

"Prior to reinforcement learning training, we initialize our network by
using supervised training.  It is necessary to teach the network to
imitate a greedy heuristic approach such as the critical path algorithm
... otherwise, simulations with a completely random network result in
extremely long and meaningless trajectories."

The trainer rolls the teacher policy over the training graphs, records
(state, mask, teacher action) triples at every decision, and minimizes the
cross-entropy of the network's masked softmax against the teacher's
choices with rmsprop mini-batches.  The optimizer/minibatch plumbing is
shared with the rollout trainers (:mod:`repro.rl.trainer`); this class
is just the cross-entropy loss.  Works with any policy model, one way:
the model's own policy adapter featurizes every teacher state, and the
records are trajectory decisions, as a rollout trainer's are.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..config import EnvConfig, TrainingConfig
from ..dag.graph import TaskGraph
from ..env.actions import PROCESS
from ..env.scheduling_env import SchedulingEnv
from ..errors import EnvironmentStateError
from ..schedulers.base import Policy
from ..schedulers.policies import greedy_policy
from ..telemetry import runtime as _telemetry
from ..utils.rng import SeedLike
from .network import PolicyNetwork
from .trainer import TrainerBase, iterate_minibatches
from .trajectories import Decision

__all__ = ["ImitationTrainer"]


class ImitationTrainer(TrainerBase):
    """Cross-entropy imitation of a heuristic teacher.

    Args:
        network: the policy network to initialize (MLP or graph policy).
        env_config: environment shape for teacher rollouts.
        teacher_factory: builds the teacher per episode (default: the
            critical-path heuristic the paper names).
        learning_rate / rho / eps: rmsprop hyper-parameters (paper values
            via :class:`TrainingConfig` defaults).
        seed: shuffling RNG.
    """

    algo = "imitation"

    def __init__(
        self,
        network: PolicyNetwork,
        env_config: EnvConfig | None = None,
        teacher_factory: Callable[[], Policy] | None = None,
        training: TrainingConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(network, env_config, training, seed)
        self.teacher_factory = (
            teacher_factory
            if teacher_factory is not None
            else partial(greedy_policy, "cp")
        )

    # ------------------------------------------------------------------ #

    def collect(self, graphs: Sequence[TaskGraph]) -> List[Decision]:
        """Roll the teacher over ``graphs`` and record every decision as
        a trajectory :class:`Decision`.

        The network's own policy adapter featurizes each state, so the
        recorded observations match what the model consumes — a window
        vector for the MLP, a per-node graph observation for the graph
        policy.  Every state is recorded, forced or not: imitation
        shuffles minibatches over all of them.
        """
        # Full legal-action masks (not work-conserving): any teacher
        # decision must be in-mask.
        observer = self.network.make_policy(mode="greedy", work_conserving=False)
        records: List[Decision] = []
        for graph in graphs:
            env = SchedulingEnv(graph, self.env_config)
            observer.begin_episode(env)
            teacher = self.teacher_factory()
            teacher.begin_episode(env)
            steps = 0
            while not env.done:
                if steps >= self.training.max_episode_steps:
                    raise EnvironmentStateError("teacher rollout livelocked")
                action = teacher.select(env)
                observation, mask = observer.observe(env)
                index = len(mask) - 1 if action == PROCESS else int(action)
                # A teacher's choice has no policy probability.
                records.append(
                    Decision(observation, mask, index, steps, float("nan"))
                )
                env.step(action)
                steps += 1
        return records

    # ------------------------------------------------------------------ #

    def train_epoch(self, records: Sequence[Decision]) -> float:
        """One pass of shuffled mini-batch cross-entropy; returns mean NLL."""
        losses: List[float] = []
        for batch in iterate_minibatches(
            self._rng, len(records), self.training.batch_size
        ):
            steps = [records[i] for i in batch]
            actions = [step.action_index for step in steps]
            grads, nll = self.network.policy_gradient_steps(
                steps, actions, np.ones(len(batch))
            )
            self.apply_gradients(grads)
            losses.append(nll)
        return float(np.mean(losses))

    def fit(
        self,
        graphs: Sequence[TaskGraph],
        epochs: Optional[int] = None,
    ) -> List[float]:
        """Collect once, then train for ``epochs``; returns the loss curve.

        With telemetry active the pass is wrapped in an
        ``imitation.fit`` span and each epoch streams one point of the
        ``imitation.loss`` series.
        """
        tm = _telemetry.active()
        total = epochs if epochs is not None else self.training.supervised_epochs
        with tm.span(
            "imitation.fit", graphs=len(graphs), epochs=total
        ) as span:
            records = self.collect(graphs)
            losses: List[float] = []
            for epoch in range(total):
                loss = self.train_epoch(records)
                losses.append(loss)
                if tm.enabled:
                    tm.record("imitation.loss", epoch, loss)
            span.set(examples=len(records))
        return losses

    def accuracy(self, records: Sequence[Decision]) -> float:
        """Fraction of states where the network's argmax matches the teacher."""
        predicted = self.network.step_probabilities(records).argmax(axis=1)
        teacher = [record.action_index for record in records]
        return float(np.mean(predicted == teacher))
