"""Fig. 6: Spear vs the baselines on random 100-task DAGs.

Fig. 6(a) — makespan CDFs of Spear, Graphene, Tetris, SJF and CP over a
batch of random DAGs.  Published result: Spear's average (820.1) beats
Graphene (869.8), Tetris, SJF and CP (890.2 / 849.0 / 896.6), winning
against Graphene on 90% of the DAGs.

Fig. 6(b) — wall-clock scheduling-time CDFs of Spear vs Graphene.
Published result: similar medians, with Graphene showing a heavy tail
(some DAGs make it re-plan much longer across its 8 candidate plans).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import EnvConfig, WorkloadConfig
from ..core.spear import SpearScheduler
from ..dag.generators import random_layered_dags
from ..dag.graph import TaskGraph
from ..rl.network import PolicyNetwork
from ..schedulers.base import Scheduler
from ..schedulers.registry import make_scheduler
from .networks import cached_network
from .scale import resolve_scale
from .tournament import TournamentResult, run_tournament, summary_table

__all__ = ["makespan_comparison", "report"]

BASELINES = ("graphene", "tetris", "sjf", "cp")


def makespan_comparison(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    network: Optional[PolicyNetwork] = None,
    graphs: Optional[Sequence[TaskGraph]] = None,
) -> TournamentResult:
    """Run Fig. 6: schedule every DAG with Spear and all four baselines.

    Args:
        paper_scale: published configuration when True (see
            :mod:`repro.experiments.scale`).
        seed: master seed (DAGs, search, training all derive from it).
        network: pre-trained policy network; trained/cached automatically
            when omitted.
        graphs: explicit workload override (e.g. trace jobs).

    Returns:
        The tournament: its ``makespans`` are Fig. 6(a) and its
        ``wall_times`` Fig. 6(b) — both panels come from the same runs,
        as in the paper.
    """
    scale = resolve_scale(paper_scale)
    env_config = EnvConfig(process_until_completion=True)
    if network is None:
        network = cached_network(scale, seed=seed)
    if graphs is None:
        workload = WorkloadConfig(num_tasks=scale.num_tasks)
        graphs = random_layered_dags(workload, scale.num_dags, seed)

    schedulers: Dict[str, Scheduler] = {
        "spear": SpearScheduler(network, scale.search_config(), env_config, seed=seed)
    }
    for name in BASELINES:
        schedulers[name] = make_scheduler(name, env_config)
    return run_tournament(schedulers, graphs, env_config)


def report(result: TournamentResult) -> str:
    """Text rendering of the Fig. 6(a) comparison."""
    table = summary_table(result, "Fig 6(a) makespans")
    beats = result.win_rate("spear", "graphene", strict=False)
    return f"{table}\nSpear no worse than Graphene on {beats:.0%} of DAGs"
