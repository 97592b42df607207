"""Experiment scale resolution.

Pure-Python MCTS at the paper's full scale (budget 1000, 100-task DAGs)
takes minutes per DAG — the paper itself reports ~500 s per schedule on a
laptop.  The harness therefore runs a reduced configuration by default
that preserves every qualitative relationship, and switches to the
published numbers when ``REPRO_PAPER_SCALE=1`` is set (or
``paper_scale=True`` is passed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import MctsConfig

__all__ = ["ExperimentScale", "resolve_scale", "paper_scale_requested"]


@dataclass(frozen=True)
class ExperimentScale:
    """All scale-dependent experiment knobs in one place."""

    label: str
    # Workload
    num_dags: int
    num_tasks: int
    # Search budget of Spear and of the pure-MCTS arms it is compared with
    spear_budget: int
    spear_min_budget: int
    # Fig. 7 sweep
    sweep_budgets: Tuple[int, ...]
    sweep_num_dags: int
    sweep_min_budget: int
    # Table I grid
    grid_sizes: Tuple[int, ...]
    grid_budgets: Tuple[int, ...]
    # Fig. 8(a) budget divisor (paper: 10 — Spear gets 1/10 of MCTS budget)
    fig8_budget_divisor: int
    # Training
    train_examples: int
    train_tasks: int
    train_epochs: int
    train_rollouts: int
    supervised_epochs: int
    # Trace
    trace_jobs: int
    trace_spear_budget: int
    trace_spear_min_budget: int

    def search_config(self) -> MctsConfig:
        """The search of Spear and of the pure-MCTS arms it is compared
        with: ``spear_budget`` / ``spear_min_budget``."""
        return MctsConfig(
            initial_budget=self.spear_budget, min_budget=self.spear_min_budget
        )


#: Reduced configuration: minutes, not hours, on one core.
LAPTOP = ExperimentScale(
    label="laptop",
    num_dags=5,
    num_tasks=30,
    spear_budget=50,
    spear_min_budget=10,
    sweep_budgets=(5, 15, 40, 80),
    sweep_num_dags=5,
    sweep_min_budget=5,
    grid_sizes=(20, 40),
    grid_budgets=(20, 50),
    fig8_budget_divisor=2,
    train_examples=12,
    train_tasks=12,
    train_epochs=20,
    train_rollouts=6,
    supervised_epochs=30,
    trace_jobs=20,
    trace_spear_budget=20,
    trace_spear_min_budget=10,
)

#: The published configuration (Sec. V-A/B/C).
PAPER = ExperimentScale(
    label="paper",
    num_dags=10,
    num_tasks=100,
    spear_budget=1000,
    spear_min_budget=100,
    sweep_budgets=(500, 600, 1000, 2200),
    sweep_num_dags=100,
    sweep_min_budget=5,
    grid_sizes=(50, 100),
    grid_budgets=(500, 1000),
    fig8_budget_divisor=10,
    train_examples=144,
    train_tasks=25,
    train_epochs=7000,
    train_rollouts=20,
    supervised_epochs=50,
    trace_jobs=99,
    trace_spear_budget=100,
    trace_spear_min_budget=50,
)


def paper_scale_requested() -> bool:
    """True iff the environment requests the published scale."""

    return os.environ.get("REPRO_PAPER_SCALE", "").strip() in ("1", "true", "yes")


def resolve_scale(paper_scale: Optional[bool] = None) -> ExperimentScale:
    """Pick the experiment scale.

    Args:
        paper_scale: explicit override; ``None`` defers to the
            ``REPRO_PAPER_SCALE`` environment variable.
    """

    if paper_scale is None:
        paper_scale = paper_scale_requested()
    return PAPER if paper_scale else LAPTOP
