"""Fig. 7: pure MCTS as a function of search budget.

Fig. 7(a) — mean makespan of pure (random-policy) MCTS decreases as the
iteration budget grows.  Fig. 7(b) — the fraction of DAGs where MCTS beats
Tetris rises with budget (paper: 56% at 600, 67% at 1000, 84% at 2200 —
and below ~500, Tetris wins more often than not).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import EnvConfig, MctsConfig, WorkloadConfig
from ..dag.generators import random_layered_dags
from ..dag.graph import TaskGraph
from ..mcts.search import MctsScheduler
from ..schedulers.base import Scheduler
from ..schedulers.registry import make_scheduler
from .reporting import format_table
from .scale import resolve_scale
from .tournament import TournamentResult, run_tournament

__all__ = ["budget_sweep", "report"]


def budget_sweep(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    budgets: Optional[Sequence[int]] = None,
    graphs: Optional[Sequence[TaskGraph]] = None,
) -> TournamentResult:
    """Sweep the MCTS initial budget over a fixed batch of DAGs.

    One tournament: Tetris, the reference, plus an arm ``mcts@<budget>``
    per budget.  The minimum budget is held at the paper's sweep floor
    (5) so small budgets actually bite.
    """
    scale = resolve_scale(paper_scale)
    env_config = EnvConfig(process_until_completion=True)
    if budgets is None:
        budgets = scale.sweep_budgets
    if graphs is None:
        workload = WorkloadConfig(num_tasks=scale.num_tasks)
        graphs = random_layered_dags(workload, scale.sweep_num_dags, seed)

    schedulers: Dict[str, Scheduler] = {"tetris": make_scheduler("tetris", env_config)}
    for budget in budgets:
        schedulers[f"mcts@{budget}"] = MctsScheduler(
            MctsConfig(initial_budget=budget, min_budget=scale.sweep_min_budget),
            env_config,
            seed=seed + budget,  # independent search noise per setting
        )
    return run_tournament(schedulers, graphs, env_config, reference="tetris")


def report(result: TournamentResult) -> str:
    """Both panels: per budget, Fig. 7(a)'s mean makespan and Fig. 7(b)'s
    win rate against Tetris."""
    rows = [
        (
            name.partition("@")[2],
            result.mean(name),
            result.mean("tetris"),
            f"{result.win_rate(name, 'tetris'):.0%}",
        )
        for name in result.makespans
        if name != "tetris"
    ]
    return format_table(
        ["budget", "MCTS mean", "Tetris mean", "MCTS beats Tetris"],
        rows,
        title=f"Fig 7 budget sweep ({len(result.makespans['tetris'])} DAGs)",
    )
