"""Generalization to larger DAGs: the scale-invariant policy's payoff.

The windowed MLP policy is structurally tied to its training shape: the
observation is a fixed-size image over ``max_ready`` visible slots, so a
10x larger DAG is squeezed through the same window and everything
outside it collapses into two backlog scalars.  The graph policy scores
*every* ready task with shared per-node weights over the DAG's own
message-passing structure — nothing in its parameterization mentions the
DAG size.

This experiment makes that difference measurable: train both model
families with an identical recipe on small DAGs, then evaluate the
frozen networks as greedy schedulers on DAGs 5x and 10x larger, against
the classical heuristics as a reference frame.  No retraining, no
fine-tuning — the question is purely what transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import EnvConfig, GnnConfig, TrainingConfig, WorkloadConfig
from ..dag.generators import random_layered_dag
from ..dag.graph import TaskGraph
from ..env.scheduling_env import SchedulingEnv
from ..metrics.comparison import ComparisonRow, compare_makespans
from ..schedulers.base import ScheduleRequest, episode_step_limit
from ..schedulers.registry import make_scheduler
from ..utils.rng import as_generator, spawn
from .reporting import format_table

__all__ = ["GeneralizationResult", "generalization_study"]

HEURISTICS = ("tetris", "sjf", "cp")


@dataclass
class GeneralizationResult:
    """Frozen-policy makespans per evaluation size."""

    train_tasks: int
    eval_sizes: Tuple[int, ...]
    num_dags: int
    #: eval size -> scheduler name -> per-DAG makespans.
    makespans: Dict[int, Dict[str, List[int]]] = field(default_factory=dict)
    #: model name -> trainable parameter count (the transfer is not free:
    #: the GNN does it with a fraction of the MLP's parameters).
    num_parameters: Dict[str, int] = field(default_factory=dict)

    def rows(self, size: int) -> List[ComparisonRow]:
        """Per-scheduler summary at one evaluation size, best mean first."""
        return compare_makespans(self.makespans[size])

    def gap_to_best_heuristic(self, size: int, name: str) -> float:
        """Mean makespan of ``name`` relative to the best heuristic mean
        at ``size`` (1.0 = parity; lower is better)."""
        data = self.makespans[size]
        heuristic = min(
            sum(data[h]) / len(data[h]) for h in HEURISTICS if h in data
        )
        mean = sum(data[name]) / len(data[name])
        return mean / heuristic

    def report(self) -> str:
        blocks = []
        for size in self.eval_sizes:
            rows = [
                (r.scheduler, r.mean, r.median, r.best, r.worst)
                for r in self.rows(size)
            ]
            blocks.append(
                format_table(
                    ["scheduler", "mean", "median", "best", "worst"],
                    rows,
                    title=(
                        f"{size}-task DAGs ({size // self.train_tasks}x "
                        f"training size, {self.num_dags} DAGs)"
                    ),
                )
            )
            blocks.append(
                "gap to best heuristic: "
                + ", ".join(
                    f"{name} {self.gap_to_best_heuristic(size, name):.3f}"
                    for name in ("drl-gnn", "drl-mlp")
                )
            )
        header = (
            f"Generalization: policies trained on {self.train_tasks}-task "
            f"DAGs, evaluated frozen"
        )
        if self.num_parameters:
            header += " (" + ", ".join(
                f"{name}: {count:,} params"
                for name, count in sorted(self.num_parameters.items())
            ) + ")"
        return "\n".join([header] + blocks)


def _greedy_makespan(policy, graph: TaskGraph, env_config: EnvConfig) -> int:
    env = SchedulingEnv(graph, env_config)
    return policy.playout(env, episode_step_limit(graph))


def generalization_study(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    train_tasks: int = 10,
    eval_factors: Sequence[int] = (5, 10),
    num_dags: int = 5,
    epochs: Optional[int] = None,
) -> GeneralizationResult:
    """Train small, evaluate frozen on ``eval_factors`` x larger DAGs.

    Both model families get the identical recipe (same seeds, same
    imitation pre-training, same REINFORCE epochs on the same
    ``train_tasks``-task examples); evaluation runs the frozen networks
    greedily plus the classical heuristics on fresh larger DAGs.

    Args:
        paper_scale: accepted for CLI symmetry; the study defines its own
            sizes (training shape vs evaluation shape is the variable
            under test, not the global experiment scale).
        seed: master seed for training and the evaluation DAG batch.
        train_tasks: size of the training examples.
        eval_factors: evaluation sizes as multiples of ``train_tasks``.
        num_dags: evaluation DAGs per size.
        epochs: REINFORCE epoch override (default 40).
    """
    del paper_scale  # the train-vs-eval size split is the experiment
    from ..core.pipeline import train_spear_network
    from ..rl.agent import NetworkPolicy
    from ..rl.gnn import GraphNetworkPolicy

    env_config = EnvConfig(process_until_completion=True)
    training = TrainingConfig(
        num_examples=8,
        example_num_tasks=train_tasks,
        rollouts_per_example=4,
        epochs=epochs if epochs is not None else 40,
        supervised_epochs=10,
        batch_size=4,
    )
    workload = WorkloadConfig(num_tasks=train_tasks, max_runtime=10, max_demand=10)
    gnn_network, _ = train_spear_network(
        env_config, training, workload, seed=seed, policy="gnn",
        gnn_config=GnnConfig(hidden_size=16, rounds=2, head_hidden=8,
                             global_hidden=16),
    )
    mlp_network, _ = train_spear_network(
        env_config, training, workload, seed=seed, policy="mlp"
    )

    result = GeneralizationResult(
        train_tasks=train_tasks,
        eval_sizes=tuple(train_tasks * f for f in eval_factors),
        num_dags=num_dags,
        num_parameters={
            "drl-gnn": gnn_network.num_parameters(),
            "drl-mlp": mlp_network.num_parameters(),
        },
    )
    rng = as_generator(seed + 1)
    for size in result.eval_sizes:
        eval_workload = WorkloadConfig(
            num_tasks=size, max_runtime=10, max_demand=10
        )
        graphs = [
            random_layered_dag(eval_workload, seed=child)
            for child in spawn(rng, num_dags)
        ]
        data: Dict[str, List[int]] = {
            "drl-gnn": [], "drl-mlp": [],
        }
        for graph in graphs:
            gnn_policy = GraphNetworkPolicy(gnn_network, mode="greedy")
            mlp_policy = NetworkPolicy(mlp_network, mode="greedy")
            data["drl-gnn"].append(
                _greedy_makespan(gnn_policy, graph, env_config)
            )
            data["drl-mlp"].append(
                _greedy_makespan(mlp_policy, graph, env_config)
            )
            for name in HEURISTICS:
                scheduler = make_scheduler(name, env_config)
                outcome = scheduler.plan(ScheduleRequest(graph))
                data.setdefault(name, []).append(outcome.makespan)
        result.makespans[size] = data
    return result
