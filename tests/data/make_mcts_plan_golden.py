"""Golden sequential searches: fixed-seed pure-MCTS (``rollout_batch=1``) plans.

The committed ``mcts_plan_golden.json`` holds, for every case below, the
makespan, every task's start time, the search statistics (iterations,
rollouts, decisions, deepest tree path, the per-decision budgets) and
the final ``bit_generator.state`` of the generator the scheduler's
expansion and rollout policies share:

* the default search on the three seeded 20-task layered DAGs of the
  wave golden;
* one replan request whose cluster snapshot carries degraded capacities;
* one plan each with ``use_expansion_filters``, ``use_max_value_ucb``
  and ``use_budget_decay`` switched off.

It was generated at the last commit whose sequential search was its own
loop (``_iterate_undo``) and has not been regenerated since: a
sequential search is now the wave collector at width 1, so every node
visit, every RNG draw and every plan must be unchanged.

Regenerate (only when an intentional behaviour change lands) with::

    PYTHONPATH=src python tests/data/make_mcts_plan_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "mcts_plan_golden.json"

BUDGET = {"initial_budget": 24, "min_budget": 8}
GRAPH_SEEDS = (101, 202, 303)
NUM_TASKS = 20
#: The replan case of the wave golden: tasks small enough to fit the
#: degraded cluster, so the search plans against the snapshot.
DEGRADED_SEED = 404
DEGRADED_CAPACITIES = (14, 14)
#: One ablation switch per plan, each on its own DAG.
ABLATIONS = (
    ("use_expansion_filters", 101),
    ("use_max_value_ucb", 202),
    ("use_budget_decay", 303),
)


def _record(case: dict, request, seed: int, **overrides) -> dict:
    import numpy as np

    from repro import EnvConfig, MctsConfig
    from repro.mcts.search import MctsScheduler

    rng = np.random.default_rng(seed)
    scheduler = MctsScheduler(
        MctsConfig(**BUDGET, **overrides),
        EnvConfig(process_until_completion=True),
        seed=rng,
    )
    schedule = scheduler.plan(request)
    stats = scheduler.last_statistics
    return {
        **case,
        "makespan": schedule.makespan,
        "starts": {
            str(tid): schedule.start_of(tid)
            for tid in sorted(request.graph.tasks())
        },
        "statistics": {
            "iterations": stats.iterations,
            "rollouts": stats.rollouts,
            "decisions": stats.decisions,
            "max_tree_depth": stats.max_tree_depth,
            "budgets": stats.budgets,
        },
        "rng_state": rng.bit_generator.state,
    }


def _plan(seed: int, disabled=None) -> dict:
    from repro import ScheduleRequest, WorkloadConfig, random_layered_dag

    graph = random_layered_dag(WorkloadConfig(num_tasks=NUM_TASKS), seed=seed)
    overrides = {disabled: False} if disabled else {}
    return _record(
        {"graph_seed": seed, "disabled": disabled},
        ScheduleRequest(graph),
        seed,
        **overrides,
    )


def _degraded_plan() -> dict:
    from repro import ScheduleRequest, WorkloadConfig, random_layered_dag
    from repro.schedulers.base import ClusterSnapshot

    workload = WorkloadConfig(num_tasks=NUM_TASKS, max_demand=12, demand_mean=6.0)
    graph = random_layered_dag(workload, seed=DEGRADED_SEED)
    assert all(
        demand <= capacity
        for task in graph
        for demand, capacity in zip(task.demands, DEGRADED_CAPACITIES)
    ), "the degraded case must be planned on the degraded capacities"
    request = ScheduleRequest(
        graph,
        cluster=ClusterSnapshot(
            capacities=DEGRADED_CAPACITIES, available=DEGRADED_CAPACITIES, now=0
        ),
    )
    case = {"graph_seed": DEGRADED_SEED, "capacities": list(DEGRADED_CAPACITIES)}
    return _record(case, request, DEGRADED_SEED)


def compute_golden() -> dict:
    return {
        "budget": BUDGET,
        "plans": [_plan(seed) for seed in GRAPH_SEEDS],
        "degraded_plan": _degraded_plan(),
        "ablation_plans": [_plan(seed, disabled) for disabled, seed in ABLATIONS],
    }


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
