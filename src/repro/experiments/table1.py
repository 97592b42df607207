"""Table I: runtime of the MCTS-only approach across scales.

"The runtimes of MCTS grow with the graph size and the amount of budget"
— the grid sweeps graph size x budget and records wall-clock seconds per
schedule.  Absolute numbers are hardware-dependent; the reproduced claim
is the monotone growth along both axes.
"""

from __future__ import annotations

import gc
from typing import Dict, Optional, Sequence, Tuple

from ..config import EnvConfig, MctsConfig, WorkloadConfig
from ..dag.generators import random_layered_dag
from ..mcts.search import MctsScheduler
from ..utils.rng import as_generator, derive_seed
from .reporting import format_table
from .scale import resolve_scale
from .tournament import TournamentResult, run_tournament

__all__ = ["runtime_grid", "seconds", "report"]


def runtime_grid(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    graph_sizes: Optional[Sequence[int]] = None,
    budgets: Optional[Sequence[int]] = None,
    min_budget: int = 5,
) -> Dict[int, TournamentResult]:
    """Measure MCTS scheduling wall-time over the size x budget grid.

    One random DAG per graph size (shared across budgets, so the budget
    axis is measured on identical instances), scheduled in one
    tournament per size by a fresh arm ``mcts@<budget>`` per cell.

    The caller's objects are frozen out of the collector for the
    duration: a full collection of a large heap costs ten times a
    micro-scale cell, and would otherwise land in whichever cell
    happened to trip it.
    """
    scale = resolve_scale(paper_scale)
    env_config = EnvConfig(process_until_completion=True)
    sizes = tuple(graph_sizes if graph_sizes is not None else scale.grid_sizes)
    budget_list = tuple(budgets if budgets is not None else scale.grid_budgets)
    rng = as_generator(seed)

    graphs = {
        size: random_layered_dag(
            WorkloadConfig(num_tasks=size), seed=derive_seed(rng)
        )
        for size in sizes
    }
    arms = {
        size: {
            f"mcts@{budget}": MctsScheduler(
                MctsConfig(initial_budget=budget, min_budget=min_budget),
                env_config,
                seed=derive_seed(rng),
            )
            for budget in budget_list
        }
        for size in sizes
    }
    gc.collect()
    gc.freeze()
    try:
        return {
            size: run_tournament(arms[size], [graphs[size]], env_config)
            for size in sizes
        }
    finally:
        gc.unfreeze()


def seconds(grid: Dict[int, TournamentResult]) -> Dict[Tuple[int, int], float]:
    """``(graph size, budget) -> seconds`` of each cell's one schedule."""
    return {
        (size, int(arm.partition("@")[2])): times[0]
        for size, result in grid.items()
        for arm, times in result.wall_times.items()
    }


def report(grid: Dict[int, TournamentResult]) -> str:
    """Text rendering in the paper's layout (rows = sizes)."""
    cells = seconds(grid)
    budgets = list(dict.fromkeys(budget for _, budget in cells))
    rows = [[size, *(cells[(size, budget)] for budget in budgets)] for size in grid]
    return format_table(
        ["tasks \\ budget", *(str(budget) for budget in budgets)],
        rows,
        title="Table I: MCTS runtime seconds",
    )
