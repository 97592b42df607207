#!/usr/bin/env python3
"""Root-parallel MCTS and a full scheduler tournament.

Demonstrates two library extensions beyond the paper's headline pipeline:

* :class:`repro.mcts.RootParallelMcts` — the "MCTS can easily be
  parallelized" remark of Sec. V-B1, as best-of-k independent searches;
* :func:`repro.experiments.run_tournament` — a round-robin over every
  baseline with win rates and paired verdicts against Graphene.

Run (takes ~1 minute):
    python examples/parallel_search_tournament.py
"""

from repro import EnvConfig, MctsConfig, ScheduleRequest, WorkloadConfig, random_layered_dag
from repro.experiments import run_tournament
from repro.mcts import MctsScheduler, RootParallelMcts
from repro.schedulers import make_scheduler
from repro.utils.rng import as_generator, spawn


def main() -> None:
    env_config = EnvConfig(process_until_completion=True)
    rng = as_generator(0)
    graphs = [
        random_layered_dag(WorkloadConfig(num_tasks=25), seed=child)
        for child in spawn(rng, 4)
    ]

    # --- root parallelization: 4 independent searches, keep the best ----
    single = MctsScheduler(
        MctsConfig(initial_budget=40, min_budget=10), env_config, seed=0
    )
    parallel = RootParallelMcts(
        MctsConfig(initial_budget=40, min_budget=10),
        env_config,
        workers=4,
        seed=0,
    )
    print("root parallelization (same per-worker budget):")
    for i, graph in enumerate(graphs):
        one = single.plan(ScheduleRequest(graph)).makespan
        best = parallel.plan(ScheduleRequest(graph)).makespan
        print(f"  dag {i}: single search {one}, best of 4 {best}")

    # --- tournament across every baseline ------------------------------
    schedulers = {
        name: make_scheduler(name, env_config)
        for name in ("tetris", "sjf", "cp", "graphene", "heft", "lpt", "fifo")
    }
    schedulers["mcts"] = MctsScheduler(
        MctsConfig(initial_budget=40, min_budget=10), env_config, seed=1
    )
    result = run_tournament(schedulers, graphs, env_config)
    print()
    print(result.report())


if __name__ == "__main__":
    main()
