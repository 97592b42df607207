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

from typing import Dict, Optional, Sequence

from ..config import EnvConfig, GnnConfig, TrainingConfig, WorkloadConfig
from ..core.pipeline import default_graph_network, default_network, train_spear_network
from ..dag.generators import random_layered_dags
from ..rl.agent import NetworkPolicy
from ..rl.gnn import GraphNetworkPolicy
from ..schedulers.base import PolicyScheduler, Scheduler
from ..schedulers.registry import make_scheduler
from ..utils.rng import as_generator
from .tournament import TournamentResult, run_tournament, summary_table

__all__ = [
    "generalization_study",
    "gap_to_best_heuristic",
    "parameter_counts",
    "report",
]

HEURISTICS = ("tetris", "sjf", "cp")
GNN_CONFIG = GnnConfig(hidden_size=16, rounds=2, head_hidden=8, global_hidden=16)
_ENV_CONFIG = EnvConfig(process_until_completion=True)


def generalization_study(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    train_tasks: int = 10,
    eval_factors: Sequence[int] = (5, 10),
    num_dags: int = 5,
    epochs: Optional[int] = None,
) -> Dict[int, TournamentResult]:
    """Train small, evaluate frozen on ``eval_factors`` x larger DAGs.

    Both model families get the identical recipe (same seeds, same
    imitation pre-training, same REINFORCE epochs on the same
    ``train_tasks``-task examples); evaluation runs the frozen networks
    greedily (arms ``drl-gnn`` and ``drl-mlp``) plus the classical
    heuristics on fresh larger DAGs, one tournament per evaluation size.

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
        _ENV_CONFIG, training, workload, seed=seed, policy="gnn",
        gnn_config=GNN_CONFIG,
    )
    mlp_network, _ = train_spear_network(
        _ENV_CONFIG, training, workload, seed=seed, policy="mlp"
    )
    policies = {
        "drl-gnn": lambda: GraphNetworkPolicy(gnn_network, mode="greedy"),
        "drl-mlp": lambda: NetworkPolicy(mlp_network, mode="greedy"),
    }
    arms: Dict[str, Scheduler] = {
        name: PolicyScheduler(factory, _ENV_CONFIG, name=name)
        for name, factory in policies.items()
    }
    for name in HEURISTICS:
        arms[name] = make_scheduler(name, _ENV_CONFIG)

    rng = as_generator(seed + 1)
    study: Dict[int, TournamentResult] = {}
    for factor in eval_factors:
        size = train_tasks * factor
        eval_workload = WorkloadConfig(num_tasks=size, max_runtime=10, max_demand=10)
        graphs = random_layered_dags(eval_workload, num_dags, rng)
        study[size] = run_tournament(arms, graphs, _ENV_CONFIG)
    return study


def gap_to_best_heuristic(result: TournamentResult, name: str) -> float:
    """Mean makespan of ``name`` relative to the best heuristic mean
    (1.0 = parity; lower is better)."""
    best = min(result.mean(h) for h in HEURISTICS if h in result.makespans)
    return result.mean(name) / best


def parameter_counts() -> Dict[str, int]:
    """Trainable parameters of the two frozen models (the transfer is
    not free: the GNN does it with a fraction of the MLP's parameters)."""
    return {
        "drl-gnn": default_graph_network(_ENV_CONFIG, GNN_CONFIG, seed=0).num_parameters(),
        "drl-mlp": default_network(_ENV_CONFIG, seed=0).num_parameters(),
    }


def report(study: Dict[int, TournamentResult], train_tasks: int = 10) -> str:
    """One table per evaluation size, with each model's gap to the best
    heuristic."""
    counts = ", ".join(f"{n}: {c:,} params" for n, c in sorted(parameter_counts().items()))
    blocks = [
        f"Generalization: policies trained on {train_tasks}-task DAGs, "
        f"evaluated frozen ({counts})"
    ]
    for size, result in study.items():
        title = f"{size}-task DAGs, {size // train_tasks}x training size"
        blocks.append(summary_table(result, title))
        blocks.append(
            "gap to best heuristic: "
            + ", ".join(
                f"{name} {gap_to_best_heuristic(result, name):.3f}"
                for name in ("drl-gnn", "drl-mlp")
            )
        )
    return "\n".join(blocks)
