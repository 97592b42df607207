"""Fig. 8: why DRL belongs inside MCTS.

Fig. 8(a) — Spear with one tenth of the budget matches pure MCTS: the
paper reports means of 810.8 (MCTS, budget 1000) vs 816.7 (Spear, budget
100), both ahead of Tetris / SJF / CP (843.9 / 884.5 / 837.9).

Fig. 8(b) — the REINFORCE learning curve: mean sampled makespan over the
training examples decreases with epochs and eventually crosses the Tetris
and SJF reference lines (paper: after ~900 of 7000 epochs on 144 x 25-task
examples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import EnvConfig, MctsConfig, WorkloadConfig
from ..core.pipeline import train_spear_network, training_graphs
from ..core.spear import SpearScheduler
from ..dag.generators import random_layered_dags
from ..dag.graph import TaskGraph
from ..mcts.search import MctsScheduler
from ..rl.network import PolicyNetwork
from ..rl.reinforce import EpochStats
from ..schedulers.registry import make_scheduler
from ..utils.rng import as_generator, spawn
from .networks import cached_network, training_config_for_scale
from .reporting import format_table
from .scale import ExperimentScale, resolve_scale
from .tournament import TournamentResult, run_tournament, summary_table

__all__ = [
    "spear_config",
    "budget_reduction",
    "report",
    "Fig8bResult",
    "learning_curve",
]


def spear_config(
    scale: ExperimentScale, budget_divisor: Optional[int] = None
) -> MctsConfig:
    """Spear's Fig. 8(a) search: ``1/budget_divisor`` of the MCTS budget.

    The divisor defaults to the scale's value (10 at paper scale; smaller
    at laptop scale where budgets are already tiny).
    """
    if budget_divisor is None:
        budget_divisor = scale.fig8_budget_divisor
    return MctsConfig(
        initial_budget=max(1, scale.spear_budget // budget_divisor),
        min_budget=max(1, scale.spear_min_budget // budget_divisor),
    )


def budget_reduction(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    network: Optional[PolicyNetwork] = None,
    graphs: Optional[Sequence[TaskGraph]] = None,
    budget_divisor: Optional[int] = None,
) -> TournamentResult:
    """Fig. 8(a): MCTS at the scale's budget, Spear at
    :func:`spear_config`, and the heuristics, on one DAG batch.

    Paper setting: MCTS at 1000, Spear at 100 — "we can achieve the same
    level of performance with only 10% of the budget".
    """
    scale = resolve_scale(paper_scale)
    env_config = EnvConfig(process_until_completion=True)
    if network is None:
        network = cached_network(scale, seed=seed)
    if graphs is None:
        workload = WorkloadConfig(num_tasks=scale.num_tasks)
        graphs = random_layered_dags(workload, scale.num_dags, seed)

    schedulers = {
        "mcts": MctsScheduler(scale.search_config(), env_config, seed=seed),
        "spear": SpearScheduler(
            network, spear_config(scale, budget_divisor), env_config, seed=seed
        ),
        "tetris": make_scheduler("tetris", env_config),
        "sjf": make_scheduler("sjf", env_config),
        "cp": make_scheduler("cp", env_config),
    }
    return run_tournament(schedulers, graphs, env_config)


def report(result: TournamentResult, scale: ExperimentScale) -> str:
    """Text rendering of Fig. 8(a) at ``scale``'s default divisor."""
    return summary_table(
        result,
        f"Fig 8(a): MCTS budget {scale.spear_budget} vs Spear budget "
        f"{spear_config(scale).initial_budget}",
    )


@dataclass
class Fig8bResult:
    """The learning curve plus heuristic reference lines."""

    scale: str
    history: List[EpochStats]
    tetris_mean: float
    sjf_mean: float

    def curve(self) -> List[Tuple[int, float]]:
        """(epoch, mean sampled makespan) — the Fig. 8(b) line."""
        return [(h.epoch, h.mean_makespan) for h in self.history]

    def crossed_tetris_at(self) -> Optional[int]:
        """First epoch whose mean beats the Tetris reference, if any."""
        for stats in self.history:
            if stats.mean_makespan < self.tetris_mean:
                return stats.epoch
        return None

    def final_mean(self) -> float:
        """Mean makespan of the last epoch."""
        return self.history[-1].mean_makespan

    def report(self) -> str:
        rows = [
            (h.epoch, h.mean_makespan, h.mean_entropy) for h in self.history
        ]
        table = format_table(
            ["epoch", "mean makespan", "entropy"],
            rows[:: max(1, len(rows) // 15)],
            title=f"Fig 8(b) learning curve ({self.scale} scale)",
        )
        return (
            f"{table}\nTetris reference {self.tetris_mean:.1f}, "
            f"SJF reference {self.sjf_mean:.1f}"
        )


def learning_curve(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    epochs: Optional[int] = None,
) -> Fig8bResult:
    """Fig. 8(b): train with REINFORCE and record the makespan curve.

    The Tetris and SJF reference lines are their mean makespans over the
    same training examples (the lines the paper's curve crosses).
    """
    scale = resolve_scale(paper_scale)
    env_config = EnvConfig(process_until_completion=True)
    training = training_config_for_scale(scale)
    _, history = train_spear_network(
        env_config, training, WorkloadConfig(), seed=seed, epochs=epochs
    )
    # The examples it trained on: the first of its four seed streams.
    graph_rng = spawn(as_generator(seed), 4)[0]
    graphs = training_graphs(training, WorkloadConfig(), seed=graph_rng)
    references = run_tournament(
        {name: make_scheduler(name, env_config) for name in ("tetris", "sjf")},
        graphs,
        env_config,
    )
    return Fig8bResult(
        scale=scale.label,
        history=history,
        tetris_mean=references.mean("tetris"),
        sjf_mean=references.mean("sjf"),
    )
