"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips exactly one Spear/MCTS design decision and measures
mean makespan over a shared DAG batch:

1. **graph features** — train/evaluate the DRL state with and without
   b-level / #children / b-load (Sec. III-D claims demand-only states are
   "suboptimal ... like Tetris");
2. **expansion filters** — work-conserving candidate filtering vs the raw
   legal action space (Sec. III-C);
3. **budget decay** — Eq. (4) vs a flat budget at every decision;
4. **max-value UCB** — Eq. (5) vs classic mean-value UCB (Eq. 1);
5. **guided rollout** — DRL rollouts vs random rollouts at equal budget.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence

from ..config import EnvConfig, WorkloadConfig
from ..core.pipeline import train_spear_network
from ..core.spear import SpearScheduler
from ..dag.generators import random_layered_dags
from ..dag.graph import TaskGraph
from ..mcts.search import MctsScheduler
from ..rl.agent import NetworkPolicy
from ..schedulers.base import PolicyScheduler, Scheduler
from .networks import cached_network, training_config_for_scale
from .scale import ExperimentScale, resolve_scale
from .tournament import TournamentResult, run_tournament, summary_table

__all__ = [
    "run_ablation",
    "feature_ablation",
    "exploration_sensitivity",
    "report",
    "ABLATIONS",
]


def _tournament(
    arms: Dict[str, Scheduler],
    scale: ExperimentScale,
    seed: int,
    graphs: Optional[Sequence[TaskGraph]] = None,
) -> TournamentResult:
    """``arms`` over ``graphs``, by default the Fig. 6 DAG batch."""
    if graphs is None:
        workload = WorkloadConfig(num_tasks=scale.num_tasks)
        graphs = random_layered_dags(workload, scale.num_dags, seed)
    return run_tournament(arms, graphs, EnvConfig(process_until_completion=True))


Arms = Callable[[ExperimentScale, int], Dict[str, Scheduler]]


def _switch_ablation(switch: str) -> Arms:
    """Pure MCTS at the Spear budget with the ``MctsConfig`` flag
    ``switch`` on vs off (ablations 2-4)."""

    def arms(scale: ExperimentScale, seed: int) -> Dict[str, Scheduler]:
        env_config = EnvConfig(process_until_completion=True)
        on = scale.search_config()
        return {
            "on": MctsScheduler(on, env_config, seed=seed),
            "off": MctsScheduler(replace(on, **{switch: False}), env_config, seed=seed),
        }

    return arms


def guided_rollout_ablation(scale: ExperimentScale, seed: int) -> Dict[str, Scheduler]:
    """Ablation 5: network-guided vs random rollout/expansion at the same
    (Spear-sized) budget."""
    env_config = EnvConfig(process_until_completion=True)
    network = cached_network(scale, seed=seed)
    config = scale.search_config()
    return {
        "on": SpearScheduler(network, config, env_config, seed=seed),
        "off": MctsScheduler(config, env_config, seed=seed),
    }


ABLATIONS: Dict[str, Arms] = {
    "expansion-filters": _switch_ablation("use_expansion_filters"),
    "budget-decay": _switch_ablation("use_budget_decay"),
    "max-value-ucb": _switch_ablation("use_max_value_ucb"),
    "guided-rollout": guided_rollout_ablation,
}


def run_ablation(
    name: str,
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    graphs: Optional[Sequence[TaskGraph]] = None,
) -> TournamentResult:
    """Run one named ablation (see :data:`ABLATIONS`): a tournament of
    its ``on`` and ``off`` arms over a DAG batch."""
    if name not in ABLATIONS:
        raise KeyError(f"unknown ablation {name!r}; have {sorted(ABLATIONS)}")
    scale = resolve_scale(paper_scale)
    return _tournament(ABLATIONS[name](scale, seed), scale, seed, graphs)


def exploration_sensitivity(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    scales: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 10.0),
    graphs: Optional[Sequence[TaskGraph]] = None,
) -> TournamentResult:
    """Sensitivity of MCTS to the exploration-constant multiplier.

    Sec. III-C argues ``c`` must be "in the same order of the makespan of
    the DAG"; Sec. IV scales it by a greedy-packing estimate.  This sweep
    varies the multiplier around 1.0 to show the estimate's scale is in
    the right regime: both starving exploration (0.1x) and swamping
    exploitation (10x) should do no better than 1x.
    """
    scale = resolve_scale(paper_scale)
    env_config = EnvConfig(process_until_completion=True)
    schedulers: Dict[str, Scheduler] = {
        f"c={multiplier:g}x": MctsScheduler(
            replace(scale.search_config(), exploration_scale=multiplier),
            env_config,
            seed=seed,
        )
        for multiplier in scales
    }
    return _tournament(schedulers, scale, seed, graphs)


def feature_ablation(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    epochs: Optional[int] = None,
) -> TournamentResult:
    """Ablation 1: graph features in the DRL state, on vs off.

    Two networks are trained from the same seed — one with the full
    Sec. III-D state, one with topology features zeroed — and evaluated
    greedily (pure policy, no search) on a held-out batch, isolating what
    the features buy the *agent*.
    """
    scale = resolve_scale(paper_scale)
    training = training_config_for_scale(scale)
    run_epochs = epochs if epochs is not None else scale.train_epochs
    schedulers: Dict[str, Scheduler] = {}
    for variant, include in (("on", True), ("off", False)):
        env_config = EnvConfig(
            process_until_completion=True, include_graph_features=include
        )
        network, _ = train_spear_network(
            env_config=env_config,
            training=training,
            workload=WorkloadConfig(),
            seed=seed,
            epochs=run_epochs,
        )
        schedulers[variant] = PolicyScheduler(
            lambda net=network: NetworkPolicy(net, mode="greedy"),
            env_config,
            name=f"drl-features-{variant}",
        )
    return _tournament(schedulers, scale, seed + 1)


def report(name: str, result: TournamentResult) -> str:
    """Per-variant makespans of ablation ``name``."""
    return summary_table(result, f"Ablation: {name}")
