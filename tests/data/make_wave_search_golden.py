"""Golden wave searches: fixed-seed batched (``rollout_batch=8``) plans.

The committed ``wave_search_golden.json`` holds the makespan, every
task's start time and the search statistics (iterations, rollouts,
decisions) of batched pure-MCTS searches (random expansion; each wave's
lanes played one by one with ``SchedulingEnv.random_playout`` from the
policy's one generator) on three seeded 20-task layered DAGs, plus one
replan request whose cluster snapshot carries degraded capacities.  The
``model`` / ``leaf_policy`` keys of a case are always ``None``: the file
also held network-guided waves until batched leaf evaluation was
deleted.

This script generates the file with the ``EnvConfig`` and ``MctsConfig``
below; every recorded plan is checked with ``validate_schedule`` before
it is written.  It was last regenerated when waves stopped using a NumPy
lockstep playout kernel: the lanes now draw from the generator one
episode at a time, so the start times of every case moved (the four
makespans did not).

Regenerate (only when an intentional behaviour change lands) with::

    PYTHONPATH=src python tests/data/make_wave_search_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "wave_search_golden.json"

ROLLOUT_BATCH = 8
GRAPH_SEEDS = (101, 202, 303)
NUM_TASKS = 20
#: (scheduler, model, leaf_policy) of every search run on every DAG.
SEARCHES = (("mcts", None, None),)
#: The replan case: tasks small enough to fit the degraded cluster, so
#: the search really plans against the snapshot's capacities.
DEGRADED_SEED = 404
DEGRADED_CAPACITIES = (14, 14)
DEGRADED_SEARCHES = (("mcts", None, None),)


def _env_config():
    from repro import EnvConfig

    return EnvConfig(process_until_completion=True)


def _scheduler(seed: int):
    from repro import MctsConfig
    from repro.mcts.search import MctsScheduler

    config = MctsConfig(initial_budget=24, min_budget=8, rollout_batch=ROLLOUT_BATCH)
    return MctsScheduler(config, _env_config(), seed=seed)


def _record(case: dict, scheduler, request, capacities) -> dict:
    from repro.metrics import validate_schedule

    schedule = scheduler.plan(request)
    stats = scheduler.last_statistics
    graph = request.graph
    validate_schedule(schedule, graph, capacities)
    return {
        **case,
        "makespan": schedule.makespan,
        "starts": {
            str(tid): schedule.start_of(tid) for tid in sorted(graph.tasks())
        },
        "statistics": {
            "iterations": stats.iterations,
            "rollouts": stats.rollouts,
            "decisions": stats.decisions,
        },
    }


def _plan(kind: str, model, leaf_policy, seed: int) -> dict:
    from repro import ScheduleRequest, WorkloadConfig, random_layered_dag

    graph = random_layered_dag(WorkloadConfig(num_tasks=NUM_TASKS), seed=seed)
    case = {
        "scheduler": kind,
        "model": model,
        "leaf_policy": leaf_policy,
        "graph_seed": seed,
    }
    capacities = _env_config().cluster.capacities
    return _record(case, _scheduler(seed), ScheduleRequest(graph), capacities)


def _degraded_plan(kind: str, model, leaf_policy) -> dict:
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
    case = {
        "scheduler": kind,
        "model": model,
        "leaf_policy": leaf_policy,
        "graph_seed": DEGRADED_SEED,
        "capacities": list(DEGRADED_CAPACITIES),
    }
    return _record(case, _scheduler(DEGRADED_SEED), request, DEGRADED_CAPACITIES)


def compute_golden() -> dict:
    return {
        "rollout_batch": ROLLOUT_BATCH,
        "plans": [
            _plan(kind, model, leaf_policy, seed)
            for kind, model, leaf_policy in SEARCHES
            for seed in GRAPH_SEEDS
        ],
        "degraded_plans": [
            _degraded_plan(kind, model, leaf_policy)
            for kind, model, leaf_policy in DEGRADED_SEARCHES
        ],
    }


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
