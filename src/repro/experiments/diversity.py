"""Workload-diversity study: schedulers across structured DAG families.

The paper evaluates on layered random DAGs and MapReduce trace jobs.  The
DAG-scheduling literature it cites ([8]-[10], [15]) additionally uses
structured numerical-kernel graphs; this experiment runs every baseline
across those families (:mod:`repro.dag.suites`) to check that the
qualitative ranking is not an artifact of one topology class.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import EnvConfig
from ..dag.graph import TaskGraph
from ..dag.suites import (
    cholesky_dag,
    fft_dag,
    gaussian_elimination_dag,
    stencil_dag,
)
from ..mcts.search import MctsScheduler
from ..schedulers.base import Scheduler
from ..schedulers.registry import make_scheduler
from .reporting import format_table
from .scale import resolve_scale
from .tournament import TournamentResult, run_tournament

__all__ = ["workload_families", "diversity_study", "wins", "report"]


def workload_families(size_hint: int = 5) -> Dict[str, TaskGraph]:
    """One representative graph per structured family.

    Args:
        size_hint: scales each family's parameter (matrix order, tile
            count, stencil width) so families have comparable task counts.
    """

    return {
        "gaussian": gaussian_elimination_dag(max(2, size_hint)),
        "fft": fft_dag(2 ** max(1, size_hint.bit_length() - 1)),
        "stencil": stencil_dag(max(1, size_hint), max(1, size_hint)),
        "cholesky": cholesky_dag(max(1, size_hint - 1)),
    }


def diversity_study(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    schedulers: Sequence[str] = ("tetris", "sjf", "cp", "graphene", "heft"),
    include_mcts: bool = True,
    size_hint: Optional[int] = None,
) -> Dict[str, TournamentResult]:
    """Run every scheduler on every structured family.

    One single-job tournament per family; MCTS uses the scale's Spear
    budget and a fresh search per family.
    """

    scale = resolve_scale(paper_scale)
    env_config = EnvConfig(process_until_completion=True)
    hint = size_hint if size_hint is not None else (8 if scale.label == "paper" else 5)
    study: Dict[str, TournamentResult] = {}
    for family, graph in workload_families(hint).items():
        arms: Dict[str, Scheduler] = {
            name: make_scheduler(name, env_config) for name in schedulers
        }
        if include_mcts:
            arms["mcts"] = MctsScheduler(scale.search_config(), env_config, seed=seed)
        study[family] = run_tournament(arms, [graph], env_config)
    return study


def wins(study: Dict[str, TournamentResult], scheduler: str) -> int:
    """Number of families where ``scheduler`` is (co-)best."""
    return sum(
        1
        for result in study.values()
        if result.mean(scheduler) == min(map(result.mean, result.makespans))
    )


def report(study: Dict[str, TournamentResult]) -> str:
    """Makespan per (family, scheduler)."""
    schedulers = sorted(next(iter(study.values())).makespans)
    rows = [
        [family, *(study[family].makespans[name][0] for name in schedulers)]
        for family in sorted(study)
    ]
    return format_table(["family", *schedulers], rows, title="Workload diversity")
