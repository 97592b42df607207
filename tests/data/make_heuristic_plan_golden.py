"""Golden heuristic schedules: every list heuristic's episode pinned exactly.

The committed ``heuristic_plan_golden.json`` holds, for each of
``tetris sjf cp heft lpt fifo graphene`` (Graphene's online half: a
:class:`PriorityListPolicy` over one of its derived orders, plus the same
order with every other task missing so the rank fallback is exercised):

* ``episode/...`` — ``start_times()``, ``steps_taken`` and the makespan of
  ``run_policy`` from a fresh environment and from a mid-episode one
  (five seeded random legal moves first), on a 30- and a 100-task layered
  DAG, a 3-resource layered DAG and a MapReduce DAG, under event and
  unit-slot processing, through the default window and through
  ``max_ready=3`` (so a backlog exists);
* ``rollout/...`` — ``GreedyRollout().rollout`` makespans from the same
  fresh and mid-episode states (default Tetris, and CP, which caches
  per-graph features in ``begin_episode``);
* ``plan/...`` — the placements the registry schedulers (``graphene``
  being the whole planner here) return for a replan request whose
  cluster snapshot carries degraded capacities.

It was generated at the last commit whose heuristics each spelled out
their own ``select`` and whose ``run_policy`` / ``GreedyRollout.rollout``
stepped the environment one ``select`` at a time: routing the episode
through one ``Policy.playout`` must change no start time, no step count
and no makespan.  Regenerated once since, for the four
``plan/graphene/...`` rows only: Graphene used to ignore the request's
cluster snapshot and those rows pinned plans that overran the degraded
capacities.

Regenerate (only when an intentional behaviour change lands) with::

    PYTHONPATH=src python tests/data/make_heuristic_plan_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "heuristic_plan_golden.json"

POLICIES = (
    "tetris", "sjf", "cp", "heft", "lpt", "fifo", "graphene", "priority-partial",
)
SCHEDULERS = ("tetris", "sjf", "cp", "heft", "lpt", "fifo", "graphene")
GRAPHS = ("layered30", "layered100", "layered3r", "mapreduce")
#: (label, process_until_completion, max_ready or None for the default).
ENVS = (
    ("event-default", True, None),
    ("event-window3", True, 3),
    ("slot-default", False, None),
    ("slot-window3", False, 3),
)
PREFIX_MOVES = 5
PREFIX_SEED = 20
#: The Graphene candidate whose derived order the ``graphene`` policy rows
#: execute (backward placement puts troublesome tasks out of dependency
#: order, so the online pass has something to repair).
GRAPHENE_PLAN = (0.4, "backward")
DEGRADED_CAPACITIES = (14, 14)
DEGRADED_GRAPHS = ("degraded30", "mapreduce")

_cache: dict = {}


def make_graph(name: str):
    """The named DAG (built once: the Graphene order is cached by name)."""
    if name in _cache:
        return _cache[name]
    import numpy as np

    from repro import WorkloadConfig, random_layered_dag
    from repro.dag.mapreduce import mapreduce_dag

    if name == "layered30":
        graph = random_layered_dag(WorkloadConfig(num_tasks=30), seed=101)
    elif name == "layered100":
        graph = random_layered_dag(WorkloadConfig(num_tasks=100), seed=202)
    elif name == "layered3r":
        graph = random_layered_dag(
            WorkloadConfig(num_tasks=30), seed=303, num_resources=3
        )
    elif name == "degraded30":
        graph = random_layered_dag(
            WorkloadConfig(num_tasks=30, max_demand=12, demand_mean=6.0), seed=404
        )
    elif name == "mapreduce":
        # 18 maps outnumber the default window of 15; half of them share
        # one demand vector, so ranking ties are broken by task id.
        rng = np.random.default_rng(505)
        maps, reduces = 18, 6
        map_demands = [
            (2, 1) if i % 2 else tuple(int(d) for d in rng.integers(1, 9, size=2))
            for i in range(maps)
        ]
        graph = mapreduce_dag(
            [int(r) for r in rng.integers(1, 12, size=maps)],
            [int(r) for r in rng.integers(1, 12, size=reduces)],
            map_demands=map_demands,
            reduce_demands=[
                tuple(int(d) for d in rng.integers(1, 9, size=2))
                for _ in range(reduces)
            ],
        )
    else:
        raise KeyError(name)
    _cache[name] = graph
    return graph


def make_config(graph, until_completion: bool, max_ready):
    from repro import ClusterConfig, EnvConfig

    overrides = {} if max_ready is None else {"max_ready": max_ready}
    return EnvConfig(
        cluster=ClusterConfig(capacities=(20,) * graph.num_resources),
        process_until_completion=until_completion,
        **overrides,
    )


def graphene_order(graph_name: str):
    key = ("order", graph_name)
    if key not in _cache:
        from repro.schedulers.graphene import GrapheneScheduler

        graph = make_graph(graph_name)
        planner = GrapheneScheduler(env_config=make_config(graph, True, None))
        _cache[key] = planner.build_plan(graph, *GRAPHENE_PLAN).order
    return _cache[key]


def make_policy(name: str, graph_name: str):
    from repro.schedulers.listsched import FifoPolicy, HeftPolicy, LptPolicy
    from repro.schedulers.policies import (
        CriticalPathPolicy,
        PriorityListPolicy,
        SjfPolicy,
    )
    from repro.schedulers.tetris import TetrisPolicy

    classes = {
        "tetris": TetrisPolicy,
        "sjf": SjfPolicy,
        "cp": CriticalPathPolicy,
        "heft": HeftPolicy,
        "lpt": LptPolicy,
        "fifo": FifoPolicy,
    }
    if name in classes:
        return classes[name]()
    order = graphene_order(graph_name)
    if name == "priority-partial":
        order = order[1::2]
    return PriorityListPolicy(order, name=name)


def make_env(graph_name: str, env_label: str, prefix: bool):
    """A fresh environment, or one ``PREFIX_MOVES`` random legal moves in."""
    import numpy as np

    from repro.env.scheduling_env import SchedulingEnv

    graph = make_graph(graph_name)
    (_, until_completion, max_ready), = [e for e in ENVS if e[0] == env_label]
    env = SchedulingEnv(graph, make_config(graph, until_completion, max_ready))
    if prefix:
        rng = np.random.default_rng(PREFIX_SEED)
        for _ in range(PREFIX_MOVES):
            actions = env.legal_actions()
            env.step(actions[int(rng.integers(len(actions)))])
    return env


def episode(policy_name: str, graph_name: str, env_label: str) -> dict:
    from repro.schedulers.base import run_policy

    record = {}
    for label, prefix in (("fresh", False), ("mid", True)):
        env = make_env(graph_name, env_label, prefix)
        schedule = run_policy(env, make_policy(policy_name, graph_name))
        starts = env.start_times()
        assert schedule.makespan == env.makespan
        record[label] = {
            "starts": [starts[tid] for tid in sorted(starts)],
            "steps": env.steps_taken,
            "makespan": env.makespan,
        }
    return record


def rollouts(graph_name: str, env_label: str) -> dict:
    from repro.mcts.policies import GreedyRollout
    from repro.schedulers.policies import CriticalPathPolicy

    return {
        label: [
            rollout.rollout(make_env(graph_name, env_label, prefix))
            for prefix in (False, True)
        ]
        for label, rollout in (
            ("default", GreedyRollout()),
            ("cp", GreedyRollout(CriticalPathPolicy)),
        )
    }


def degraded_plan(scheduler_name: str, graph_name: str, until_completion: bool):
    from repro import EnvConfig, ScheduleRequest, make_scheduler
    from repro.schedulers.base import ClusterSnapshot

    graph = make_graph(graph_name)
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
    scheduler = make_scheduler(
        scheduler_name, EnvConfig(process_until_completion=until_completion)
    )
    schedule = scheduler.plan(request)
    return [
        [p.task_id, p.start, p.finish]
        for p in sorted(schedule.placements, key=lambda p: p.task_id)
    ]


def case_ids() -> list:
    ids = [
        f"episode/{policy}/{graph}/{env}"
        for policy in POLICIES
        for graph in GRAPHS
        for env, _, _ in ENVS
    ]
    ids += [f"rollout/{graph}/{env}" for graph in GRAPHS for env, _, _ in ENVS]
    ids += [
        f"plan/{scheduler}/{graph}/{mode}"
        for scheduler in SCHEDULERS
        for graph in DEGRADED_GRAPHS
        for mode in ("event", "slot")
    ]
    return ids


def compute_case(case_id: str):
    kind, *rest = case_id.split("/")
    if kind == "episode":
        return episode(*rest)
    if kind == "rollout":
        return rollouts(*rest)
    scheduler, graph, mode = rest
    return degraded_plan(scheduler, graph, mode == "event")


def compute_golden() -> dict:
    return {case_id: compute_case(case_id) for case_id in case_ids()}


def dumps(golden: dict) -> str:
    """One case per line: the file diffs by case and stays a few hundred
    lines, where ``indent=1`` would spend a line per start time."""
    lines = [
        f" {json.dumps(case_id)}: "
        f"{json.dumps(golden[case_id], sort_keys=True, separators=(',', ':'))}"
        for case_id in sorted(golden)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> None:
    GOLDEN_PATH.write_text(dumps(compute_golden()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
