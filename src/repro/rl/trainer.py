"""The shared trainer skeleton behind REINFORCE, PPO and imitation.

Concrete trainers differ only in *how a batch of experience turns into a
gradient step*; everything else — rollout collection with per-rollout
spawned RNG streams, the graph-batched epoch loop, advantage plumbing,
telemetry series, evaluation — lives here.  :class:`ReinforceTrainer`
and :class:`PpoTrainer` subclass :class:`Trainer` (on-policy rollout
trainers); :class:`ImitationTrainer` shares the optimizer/gradient
plumbing through :class:`TrainerBase`.

The skeleton is model-agnostic: it talks to the policy network only
through the step-batch interface (``make_policy``,
``policy_gradient_steps``, ``step_probabilities``,
``entropy_gradient_steps``), which both :class:`PolicyNetwork` (MLP) and
:class:`GraphPolicyNetwork` (GNN) implement.

Episodes are played through the fused playout, which records only the
*decisions* — states with more than one candidate action; a forced
step's policy terms are exactly 0 (:mod:`repro.rl.trajectories`).  So
every policy pass runs on decided rows only, and every normaliser stays
the full step count: the same estimator as training on every step
(DESIGN.md Sec. 16.3; ``tests/unit/rl/test_train_on_decisions.py``
keeps the all-row update as its oracle).

The rollouts of one graph are sampled at fixed parameters and revisit
each other's states, so :meth:`Trainer.sample_trajectories` installs one
:class:`~repro.rl.agent.PolicyMemo` on the group's policies: a state an
earlier rollout evaluated is read back, observation included, instead
of being featurized and forwarded again (DESIGN.md Sec. 16.6).
"""

from __future__ import annotations

import abc
import sys
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EnvConfig, TrainingConfig
from ..dag.graph import TaskGraph
from ..env.scheduling_env import SchedulingEnv
from ..telemetry import runtime as _telemetry
from ..utils.rng import SeedLike, as_generator, spawn
from .agent import PolicyMemo
from .modules import policy_entropy
from .optimizers import RmsProp, clip_global_norm
from .trajectories import Decision, Trajectory, returns_to_go, rollout_trajectory

__all__ = ["Trainer", "TrainerBase", "EpochStats", "iterate_minibatches"]


@dataclass(frozen=True)
class EpochStats:
    """Telemetry of one training epoch."""

    epoch: int
    mean_makespan: float
    best_makespan: int
    worst_makespan: int
    mean_entropy: float
    num_trajectories: int
    mean_loss: float = 0.0


def iterate_minibatches(
    rng: np.random.Generator, n: int, batch_size: int
) -> Iterator[np.ndarray]:
    """Shuffled mini-batch index arrays covering ``range(n)`` once."""
    indices = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield indices[start : start + batch_size]


class TrainerBase:
    """Optimizer/gradient plumbing shared by every trainer.

    Args:
        network: any policy model implementing the step-batch interface.
        env_config: environment shape used for every episode.
        training: hyper-parameters (learning rate, clipping, batching).
        seed: master RNG seed.
    """

    #: Telemetry prefix (``{algo}.loss``, ``{algo}.train`` span, ...).
    algo: ClassVar[str] = "train"

    def __init__(
        self,
        network,
        env_config: EnvConfig | None = None,
        training: TrainingConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        self.network = network
        self.env_config = env_config if env_config is not None else EnvConfig()
        self.training = training if training is not None else TrainingConfig()
        self.optimizer = RmsProp(
            self.training.learning_rate, self.training.rho, self.training.eps
        )
        self._rng = as_generator(seed)

    def apply_gradients(self, grads: Dict[str, np.ndarray]) -> None:
        """Clip (when configured) and take one optimizer step."""
        if self.training.max_grad_norm > 0.0:
            clip_global_norm(grads, self.training.max_grad_norm)
        self.optimizer.step(self.network.params, grads)

    def make_policy(self, mode: str, seed: SeedLike = None):
        """The network driving an episode (model decides the policy type)."""
        return self.network.make_policy(mode=mode, seed=seed)


class Trainer(TrainerBase, abc.ABC):
    """On-policy rollout trainer over a fixed set of example DAGs.

    Per epoch, for every training example, ``rollouts_per_example``
    trajectories are sampled (paper: 20); subclasses turn each
    graph-batch of trajectories plus advantages into gradient updates
    via :meth:`_update_batch`.
    """

    #: A trainer with a critic reads every state, forced ones included,
    #: so its episodes also record the observation of every step.
    has_critic: ClassVar[bool] = False

    def __init__(
        self,
        network,
        graphs: Sequence[TaskGraph],
        env_config: EnvConfig | None = None,
        training: TrainingConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        if not graphs:
            raise ValueError("need at least one training graph")
        super().__init__(network, env_config, training, seed)
        self.graphs = list(graphs)
        self.history: List[EpochStats] = []
        #: The rollout-group memo; empty and installed on no policy
        #: outside :meth:`sample_trajectories`.
        self.memo = PolicyMemo()
        # The memo's lookups and hits since the epoch began.
        self._policy_evaluations = 0
        self._policy_memo_hits = 0

    # ------------------------------------------------------------------ #
    # experience collection
    # ------------------------------------------------------------------ #

    def sample_trajectories(self, graph: TaskGraph) -> List[Trajectory]:
        """``rollouts_per_example`` sampled episodes on one graph.

        Each rollout draws from its own spawned generator and plays a
        clone of one environment.  The group shares :attr:`memo`: no
        update runs in here, so the parameters cannot move while it is
        installed, and every rollout records what it would record
        without it.  The memo is emptied and taken off however the
        group ends.
        """
        children = spawn(self._rng, self.training.rollouts_per_example)
        template = SchedulingEnv(graph, self.env_config)
        memo = self.memo
        policies = []
        trajectories = []
        try:
            for child in children:
                policy = self.make_policy("sample", seed=child)
                policy.memo = memo
                policies.append(policy)
                trajectories.append(
                    rollout_trajectory(
                        template.clone(),
                        policy,
                        self.training.max_episode_steps,
                        every_state=self.has_critic,
                    )
                )
        finally:
            self._policy_evaluations += memo.evaluations
            self._policy_memo_hits += memo.hits
            memo.clear()
            for policy in policies:
                policy.memo = None
        return trajectories

    @staticmethod
    def advantages(trajectories: Sequence[Trajectory]) -> List[np.ndarray]:
        """Per-step advantages with the cross-rollout mean-return baseline.

        Returns are aligned by step index; the baseline at index ``t`` is
        the mean of ``G_t`` over every rollout long enough to have a step
        ``t`` (the DeepRM/Spear convention for unequal-length episodes).
        """
        all_returns = [returns_to_go(t) for t in trajectories]
        max_len = max(len(r) for r in all_returns)
        sums = np.zeros(max_len)
        counts = np.zeros(max_len)
        for returns in all_returns:
            sums[: len(returns)] += returns
            counts[: len(returns)] += 1
        baseline = sums / np.maximum(counts, 1)
        return [returns - baseline[: len(returns)] for returns in all_returns]

    def _advantages(
        self, trajectories: Sequence[Trajectory]
    ) -> List[np.ndarray]:
        """Advantage estimator hook (default: rollout-mean baseline)."""
        return self.advantages(trajectories)

    # ------------------------------------------------------------------ #
    # the epoch loop
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _update_batch(
        self,
        trajectories: Sequence[Trajectory],
        advantage_arrays: Sequence[np.ndarray],
    ) -> Tuple[float, float]:
        """Consume one graph-batch of experience; returns
        ``(mean policy entropy, surrogate loss)``."""

    def train_epoch(self, epoch: int) -> EpochStats:
        """One epoch: sample, baseline, update — batched over examples.

        With telemetry active the epoch lands as one point on each of
        the training-curve series: ``{algo}.loss`` (surrogate loss),
        ``{algo}.entropy``, ``{algo}.return`` (best return achieved,
        i.e. negated best makespan) and ``{algo}.baseline`` (the
        trajectory-average return the advantage is centered on, i.e.
        negated mean makespan).  The ``{algo}.policy_evaluations`` /
        ``{algo}.policy_memo_hits`` counters take the epoch's memo
        lookups and hits.
        """
        self._policy_evaluations = self._policy_memo_hits = 0
        makespans: List[int] = []
        entropies: List[float] = []
        losses: List[float] = []
        batch_size = self.training.batch_size
        for start in range(0, len(self.graphs), batch_size):
            batch_graphs = self.graphs[start : start + batch_size]
            batch_trajectories: List[Trajectory] = []
            batch_advantages: List[np.ndarray] = []
            for graph in batch_graphs:
                trajectories = self.sample_trajectories(graph)
                batch_trajectories.extend(trajectories)
                batch_advantages.extend(self._advantages(trajectories))
                makespans.extend(t.makespan for t in trajectories)
            entropy, loss = self._update_batch(
                batch_trajectories, batch_advantages
            )
            entropies.append(entropy)
            losses.append(loss)
        stats = EpochStats(
            epoch=epoch,
            mean_makespan=float(np.mean(makespans)),
            best_makespan=int(np.min(makespans)),
            worst_makespan=int(np.max(makespans)),
            mean_entropy=float(np.mean(entropies)),
            num_trajectories=len(makespans),
            mean_loss=float(np.mean(losses)),
        )
        self.history.append(stats)
        tm = _telemetry.active()
        if tm.enabled:
            tm.record(f"{self.algo}.loss", epoch, stats.mean_loss)
            tm.record(f"{self.algo}.entropy", epoch, stats.mean_entropy)
            tm.record(f"{self.algo}.return", epoch, -float(stats.best_makespan))
            tm.record(f"{self.algo}.baseline", epoch, -stats.mean_makespan)
            tm.inc(f"{self.algo}.trajectories", stats.num_trajectories)
            tm.inc(f"{self.algo}.policy_evaluations", self._policy_evaluations)
            tm.inc(f"{self.algo}.policy_memo_hits", self._policy_memo_hits)
        return stats

    def train(
        self,
        epochs: Optional[int] = None,
        log_every: int = 0,
    ) -> List[EpochStats]:
        """Run ``epochs`` epochs (default from config); returns the curve.

        ``log_every=k`` reports every k-th epoch as one ``epoch k: ...``
        line on stderr (progress logging never lands on stdout) and,
        when telemetry is active, also as a structured ``{algo}.epoch``
        log event in the trace.
        """
        total = epochs if epochs is not None else self.training.epochs
        tm = _telemetry.active()
        with tm.span(
            f"{self.algo}.train", epochs=total, graphs=len(self.graphs)
        ):
            for epoch in range(total):
                stats = self.train_epoch(epoch)
                if log_every and epoch % log_every == 0:
                    message = (
                        f"epoch {stats.epoch}: mean makespan "
                        f"{stats.mean_makespan:.1f} entropy "
                        f"{stats.mean_entropy:.3f}"
                    )
                    print(message, file=sys.stderr)
                    if tm.enabled:
                        tm.log(
                            f"{self.algo}.epoch",
                            message=message,
                            epoch=stats.epoch,
                            mean_makespan=stats.mean_makespan,
                            mean_entropy=stats.mean_entropy,
                        )
        return self.history

    def evaluate(self, graphs: Sequence[TaskGraph], greedy: bool = True) -> List[int]:
        """Makespan of the current policy on each graph (greedy by default)."""
        results = []
        for graph in graphs:
            env = SchedulingEnv(graph, self.env_config)
            mode = "greedy" if greedy else "sample"
            policy = self.make_policy(mode, seed=self._rng)
            results.append(
                policy.playout(env, self.training.max_episode_steps)
            )
        return results

    # ------------------------------------------------------------------ #
    # shared step-batch helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def flatten_decisions(
        trajectories: Sequence[Trajectory],
    ) -> Tuple[List[Decision], np.ndarray, np.ndarray]:
        """All decisions of a trajectory batch, their action indices, and
        their rows among the batch's steps (trajectory after trajectory,
        the order of the concatenated per-step advantages)."""
        decisions: List[Decision] = []
        rows: List[int] = []
        offset = 0
        for trajectory in trajectories:
            decisions.extend(trajectory.decisions)
            rows.extend(offset + d.position for d in trajectory.decisions)
            offset += len(trajectory)
        actions = np.asarray([d.action_index for d in decisions], dtype=int)
        return decisions, actions, np.asarray(rows, dtype=int)

    def mean_entropy(self, decisions: Sequence[Decision], total: int) -> float:
        """Mean policy entropy over ``total`` steps whose unforced ones are
        ``decisions`` (current parameters; a forced step's is 0)."""
        return policy_entropy(self.network.step_probabilities(decisions), total)
