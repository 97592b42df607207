"""Frozen configuration dataclasses shared across the library.

Every tunable in the paper is captured here with its published default:

* :class:`WorkloadConfig` — Sec. V-A simulation workload (100-task DAGs,
  width 2..5, truncated-normal runtimes and demands).
* :class:`ClusterConfig` — the resource-time space (two resource types,
  20 slots each, horizon of 20 slots for the DRL state image).
* :class:`MctsConfig` — Sec. III-C (initial budget 1000, minimum budget 100,
  exploration constant scaled by a greedy makespan estimate, budget decay of
  Eq. (4)).
* :class:`NetworkConfig` / :class:`TrainingConfig` — Sec. IV (hidden layers
  256/32/32, rmsprop with alpha=1e-4, rho=0.9, eps=1e-9, 20 rollouts per
  example for the baseline, supervised pre-training on the critical-path
  heuristic).
* :class:`GrapheneConfig` — Sec. V-A (troublesome thresholds 0.2/0.4/0.6/0.8).

All dataclasses are frozen: configurations are values, never mutated after
construction.  ``validate()`` raises :class:`repro.errors.ConfigError` on
out-of-range values and is invoked in ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .errors import ConfigError
from .telemetry.config import TelemetryConfig

__all__ = [
    "ClusterConfig",
    "WorkloadConfig",
    "MctsConfig",
    "NetworkConfig",
    "GnnConfig",
    "TrainingConfig",
    "GrapheneConfig",
    "EnvConfig",
    "TelemetryConfig",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster's resource-time space.

    Attributes:
        capacities: total slots per resource dimension.  The paper uses two
            resource types (CPU, memory) with 20 slots each ("the total
            number of resource slots in the cluster is 20r").
        horizon: number of future time slots rendered in the DRL state image
            ("the time horizon is set to be 20t").
    """

    capacities: Tuple[int, ...] = (20, 20)
    horizon: int = 20

    def __post_init__(self) -> None:
        _require(len(self.capacities) >= 1, "at least one resource dimension")
        _require(all(c > 0 for c in self.capacities), "capacities must be positive")
        _require(self.horizon > 0, "horizon must be positive")

    @property
    def num_resources(self) -> int:
        """Number of resource dimensions."""
        return len(self.capacities)


@dataclass(frozen=True)
class WorkloadConfig:
    """Random layered-DAG workload of Sec. V-A.

    ``num_tasks=100``, layer width uniform in ``[min_width, max_width]``
    (paper: 2..5), task runtime and per-resource demand drawn from normal
    distributions truncated to ``[1, max_runtime]`` and ``[1, max_demand]``
    slots respectively (paper: max runtime 20t, max demand 20r).
    """

    num_tasks: int = 100
    min_width: int = 2
    max_width: int = 5
    max_runtime: int = 20
    max_demand: int = 20
    runtime_mean: float = 10.0
    runtime_std: float = 5.0
    demand_mean: float = 10.0
    demand_std: float = 5.0
    edge_probability: float = 0.5

    def __post_init__(self) -> None:
        _require(self.num_tasks >= 1, "num_tasks must be >= 1")
        _require(1 <= self.min_width <= self.max_width, "invalid width range")
        _require(self.max_runtime >= 1, "max_runtime must be >= 1")
        _require(self.max_demand >= 1, "max_demand must be >= 1")
        _require(self.runtime_std >= 0, "runtime_std must be >= 0")
        _require(self.demand_std >= 0, "demand_std must be >= 0")
        _require(0.0 <= self.edge_probability <= 1.0, "edge_probability in [0, 1]")


@dataclass(frozen=True)
class MctsConfig:
    """Monte Carlo Tree Search parameters (Sec. III-C, Eq. 4 and 5).

    Attributes:
        initial_budget: iterations available at the root decision.
        min_budget: floor of the per-depth budget decay
            ``max(initial_budget / depth, min_budget)``.
        exploration_scale: multiple of the greedy-makespan estimate used as
            the exploration constant ``c`` ("we set the value of c in the
            same order of the makespan of the DAG").
        use_expansion_filters: enable the two Sec. III-C breadth filters
            (skip redundant process actions; only expand tasks startable
            before the earliest finish time in the cluster).
        use_budget_decay: enable Eq. (4); with ``False`` every decision gets
            ``initial_budget`` iterations (ablation 3 in DESIGN.md).
        use_max_value_ucb: Eq. (5) max-value exploitation with mean tiebreak;
            ``False`` falls back to classic mean-value UCB (ablation 4).
        rollout_batch: leaves collected per search round (DESIGN.md
            Sec. 15) — the width of the one tree walk, a pure-MCTS option.
            ``1`` (default) is the sequential search, one rollout per
            round; ``> 1`` collects that many leaves under virtual loss
            and then plays each with the fused random playout
            (:meth:`repro.env.SchedulingEnv.random_playout`), in
            collection order.  Schedules stay valid and seed-deterministic
            but differ from the sequential search's.  Works under every
            ``EnvConfig`` with ``RandomRollout``; any other rollout policy
            (``NetworkRollout`` — so Spear —, ``GreedyRollout``) is a
            ``ConfigError``, not a silent sequential search.

    Every rollout plays to termination, as in the paper.  How tree
    states are re-materialized is not a parameter: a descent clones the
    search's environment once, replays its path with ``step`` and rolls
    the copy out (DESIGN.md Sec. 8).
    """

    initial_budget: int = 1000
    min_budget: int = 100
    exploration_scale: float = 1.0
    use_expansion_filters: bool = True
    use_budget_decay: bool = True
    use_max_value_ucb: bool = True
    rollout_batch: int = 1

    def __post_init__(self) -> None:
        _require(self.initial_budget >= 1, "initial_budget must be >= 1")
        _require(1 <= self.min_budget, "min_budget must be >= 1")
        _require(self.exploration_scale > 0, "exploration_scale must be > 0")
        _require(self.rollout_batch >= 1, "rollout_batch must be >= 1")


@dataclass(frozen=True)
class NetworkConfig:
    """Policy network architecture of Sec. IV.

    Three hidden layers of widths 256, 32 and 32 with rectified-linear
    activations and a softmax output over the ``max_ready + 1`` actions.
    """

    hidden_sizes: Tuple[int, ...] = (256, 32, 32)
    max_ready: int = 15

    def __post_init__(self) -> None:
        _require(len(self.hidden_sizes) >= 1, "need at least one hidden layer")
        _require(all(h > 0 for h in self.hidden_sizes), "hidden sizes positive")
        _require(self.max_ready >= 1, "max_ready must be >= 1")

    @property
    def num_actions(self) -> int:
        """Output dimensionality: one logit per visible ready slot + process."""
        return self.max_ready + 1


@dataclass(frozen=True)
class GnnConfig:
    """Graph policy architecture (DESIGN.md Sec. 16).

    Per-node embeddings over the DAG: a linear+ReLU encoder over static
    and dynamic node features, ``rounds`` of parent/child message
    passing on the CSR adjacency, a mean-pooled global readout joined
    with cluster features, and a scale-invariant per-ready-task score
    head (shared weights, no ``max_ready`` window — the same parameters
    score a 10-task and a 250-task DAG).
    """

    hidden_size: int = 32
    rounds: int = 2
    head_hidden: int = 16
    global_hidden: int = 32

    def __post_init__(self) -> None:
        _require(self.hidden_size >= 1, "hidden_size must be >= 1")
        _require(self.rounds >= 0, "rounds must be >= 0")
        _require(self.head_hidden >= 1, "head_hidden must be >= 1")
        _require(self.global_hidden >= 1, "global_hidden must be >= 1")


@dataclass(frozen=True)
class TrainingConfig:
    """REINFORCE + imitation training parameters (Sec. IV, Fig. 8(b)).

    The paper trains on 144 random 25-task examples for 7000 epochs with 20
    rollouts per example to estimate the baseline, using rmsprop with
    ``alpha=1e-4``, ``rho=0.9`` and ``eps=1e-9``.
    """

    learning_rate: float = 1e-4
    rho: float = 0.9
    eps: float = 1e-9
    rollouts_per_example: int = 20
    num_examples: int = 144
    example_num_tasks: int = 25
    epochs: int = 7000
    batch_size: int = 16
    supervised_epochs: int = 50
    entropy_bonus: float = 0.0
    max_episode_steps: int = 5000
    seed: int = 0
    #: Global-norm gradient clipping (0 disables; every trainer honors it).
    max_grad_norm: float = 0.0
    # PPO (repro train --algo ppo): clipped-surrogate hyper-parameters.
    ppo_clip: float = 0.2
    ppo_epochs: int = 4
    ppo_minibatch: int = 64
    gae_lambda: float = 0.95
    gamma: float = 1.0
    value_learning_rate: float = 1e-3
    value_epochs: int = 3
    normalize_advantages: bool = True

    def __post_init__(self) -> None:
        _require(self.learning_rate > 0, "learning_rate must be > 0")
        _require(0.0 <= self.rho < 1.0, "rho must be in [0, 1)")
        _require(self.eps > 0, "eps must be > 0")
        _require(self.rollouts_per_example >= 1, "rollouts_per_example >= 1")
        _require(self.num_examples >= 1, "num_examples >= 1")
        _require(self.example_num_tasks >= 1, "example_num_tasks >= 1")
        _require(self.epochs >= 0, "epochs >= 0")
        _require(self.batch_size >= 1, "batch_size >= 1")
        _require(self.supervised_epochs >= 0, "supervised_epochs >= 0")
        _require(self.entropy_bonus >= 0, "entropy_bonus >= 0")
        _require(self.max_episode_steps >= 1, "max_episode_steps >= 1")
        _require(self.max_grad_norm >= 0, "max_grad_norm >= 0")
        _require(self.ppo_clip > 0, "ppo_clip must be > 0")
        _require(self.ppo_epochs >= 1, "ppo_epochs >= 1")
        _require(self.ppo_minibatch >= 1, "ppo_minibatch >= 1")
        _require(0.0 <= self.gae_lambda <= 1.0, "gae_lambda in [0, 1]")
        _require(0.0 < self.gamma <= 1.0, "gamma in (0, 1]")
        _require(self.value_learning_rate > 0, "value_learning_rate > 0")
        _require(self.value_epochs >= 1, "value_epochs >= 1")


@dataclass(frozen=True)
class GrapheneConfig:
    """Graphene baseline parameters (Sec. V-A).

    ``thresholds`` define the troublesome-task runtime cut-offs tried per
    DAG; the best resulting schedule is kept.  Both the forward and the
    backward space-time placement strategies are always evaluated.
    """

    thresholds: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    demand_threshold: float = 0.5
    space_time_horizon_factor: float = 4.0

    def __post_init__(self) -> None:
        _require(len(self.thresholds) >= 1, "need at least one threshold")
        _require(
            all(0.0 < t <= 1.0 for t in self.thresholds),
            "thresholds must lie in (0, 1]",
        )
        _require(0.0 < self.demand_threshold <= 1.0, "demand_threshold in (0, 1]")
        _require(self.space_time_horizon_factor >= 1.0, "horizon factor >= 1")


@dataclass(frozen=True)
class EnvConfig:
    """Scheduling-MDP parameters (Sec. III-B, III-D).

    Attributes:
        cluster: resource-time space shape.
        max_ready: visible ready-task slots; excess tasks wait in a backlog
            queue (paper: 15).
        process_until_completion: if ``True`` the process action advances
            time until at least one running task finishes (the MCTS tree
            adaptation of Sec. III-C); if ``False`` it advances exactly one
            slot (the DRL training granularity of Sec. III-D).
        include_graph_features: feed b-level / #children / b-load to the
            DRL state (Sec. III-D).  ``False`` zeroes them, reproducing the
            demand-only ablation the paper says "can only obtain suboptimal
            performance like Tetris".

    Every environment is a :class:`repro.env.SchedulingEnv` built from
    this config; there is no implementation switch (DESIGN.md Sec. 15).
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    max_ready: int = 15
    process_until_completion: bool = False
    include_graph_features: bool = True

    def __post_init__(self) -> None:
        _require(self.max_ready >= 1, "max_ready must be >= 1")

