"""Golden Spear plans: fixed-seed network-guided searches pinned exactly.

The committed ``spear_plan_golden.json`` holds the makespan and every
task's start time of ``spear:budget=20,min_budget=5`` on three seeded
20-task layered DAGs, once guided by the windowed MLP and once by the
graph policy (freshly initialized, fixed seed — the plans depend on the
network's sampled rollouts, not on it being trained).  It was generated
at the commit *before* the single-state policy step was fused (forced
moves skip the forward, one shared inverse-CDF sampler), so it pins
that the fused step changes neither an action nor the RNG stream of a
whole search.

Regenerate (only when an intentional behaviour change lands) with::

    PYTHONPATH=src python tests/data/make_spear_plan_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "spear_plan_golden.json"

SPEC = "spear:budget=20,min_budget=5"
GRAPH_SEEDS = (101, 202, 303)
NUM_TASKS = 20


def _plan(model: str, seed: int) -> dict:
    from repro import (
        EnvConfig,
        ScheduleRequest,
        WorkloadConfig,
        make_scheduler,
        random_layered_dag,
    )
    from repro.core.pipeline import default_graph_network, default_network

    env = EnvConfig(process_until_completion=True)
    graph = random_layered_dag(WorkloadConfig(num_tasks=NUM_TASKS), seed=seed)
    make_network = default_network if model == "mlp" else default_graph_network
    scheduler = make_scheduler(
        SPEC, env, network=make_network(env, seed=seed), seed=seed
    )
    schedule = scheduler.plan(ScheduleRequest(graph))
    return {
        "model": model,
        "graph_seed": seed,
        "makespan": schedule.makespan,
        "starts": {
            str(tid): schedule.start_of(tid) for tid in sorted(graph.tasks())
        },
    }


def compute_golden() -> dict:
    return {
        "spec": SPEC,
        "plans": [
            _plan(model, seed) for model in ("mlp", "gnn") for seed in GRAPH_SEEDS
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
