"""Golden Graphene plans: every candidate plan and the final schedule pinned.

The committed ``graphene_golden.json`` holds, per case:

* ``candidates`` — one row per :meth:`GrapheneScheduler.candidate_plans`
  entry (every threshold x {forward, backward}): ``threshold``,
  ``direction``, ``troublesome``, the derived ``order`` and the
  ``virtual_makespan`` of the packed resource-time space;
* ``plan`` — the ``[task_id, start, finish]`` placements ``plan()``
  returns (the best candidate executed online).

Cases: layered 30- and 100-task DAGs, a 3-resource layered DAG, a
MapReduce DAG, the Fig. 3 motivating example on its 100 x 100 cluster,
and a request whose :class:`ClusterSnapshot` carries degraded capacities
(so the virtual space is packed against them, not the configured ones).

It was cut while the virtual space was a dense ``(resource, slot)`` NumPy
grid: the step-function profile that replaced it must reproduce every
candidate and every placement.

Regenerate (only when an intentional behaviour change lands) with::

    PYTHONPATH=src python tests/data/make_graphene_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "graphene_golden.json"

CASES = ("layered30", "layered100", "layered3r", "mapreduce", "fig3", "degraded30")
DEGRADED_CAPACITIES = (14, 14)


def make_graph(name: str):
    import numpy as np

    from repro import WorkloadConfig, motivating_example, random_layered_dag
    from repro.dag.mapreduce import mapreduce_dag

    if name == "layered30":
        return random_layered_dag(WorkloadConfig(num_tasks=30), seed=101)
    if name == "layered100":
        return random_layered_dag(WorkloadConfig(num_tasks=100), seed=202)
    if name == "layered3r":
        return random_layered_dag(
            WorkloadConfig(num_tasks=30), seed=303, num_resources=3
        )
    if name == "degraded30":
        return random_layered_dag(
            WorkloadConfig(num_tasks=30, max_demand=12, demand_mean=6.0), seed=404
        )
    if name == "fig3":
        return motivating_example()
    if name == "mapreduce":
        rng = np.random.default_rng(505)
        maps, reduces = 18, 6
        return mapreduce_dag(
            [int(r) for r in rng.integers(1, 12, size=maps)],
            [int(r) for r in rng.integers(1, 12, size=reduces)],
            map_demands=[
                tuple(int(d) for d in rng.integers(1, 9, size=2)) for _ in range(maps)
            ],
            reduce_demands=[
                tuple(int(d) for d in rng.integers(1, 9, size=2))
                for _ in range(reduces)
            ],
        )
    raise KeyError(name)


def make_request(name: str):
    """The graph, the scheduler's configured environment and the request."""
    from repro import ClusterConfig, EnvConfig, ScheduleRequest
    from repro.dag.examples import MOTIVATING_CAPACITY
    from repro.schedulers.base import ClusterSnapshot

    graph = make_graph(name)
    capacities = MOTIVATING_CAPACITY if name == "fig3" else (20,) * graph.num_resources
    env_config = EnvConfig(
        cluster=ClusterConfig(capacities=capacities), process_until_completion=True
    )
    if name != "degraded30":
        return env_config, ScheduleRequest(graph)
    snapshot = ClusterSnapshot(
        capacities=DEGRADED_CAPACITIES, available=DEGRADED_CAPACITIES, now=0
    )
    return env_config, ScheduleRequest(graph, cluster=snapshot)


def compute_case(name: str) -> dict:
    from repro.schedulers.base import _planning_config
    from repro.schedulers.graphene import GrapheneScheduler

    env_config, request = make_request(name)
    # The planner that plan() delegates to: configured for the snapshot.
    planner = GrapheneScheduler(env_config=_planning_config(env_config, request))
    candidates = [
        {
            "threshold": plan.threshold,
            "direction": plan.direction,
            "troublesome": list(plan.troublesome),
            "order": list(plan.order),
            "virtual_makespan": plan.virtual_makespan,
        }
        for plan in planner.candidate_plans(request.graph)
    ]
    schedule = GrapheneScheduler(env_config=env_config).plan(request)
    placements = [
        [p.task_id, p.start, p.finish]
        for p in sorted(schedule.placements, key=lambda p: p.task_id)
    ]
    return {"candidates": candidates, "plan": placements}


def compute_golden() -> dict:
    return {name: compute_case(name) for name in CASES}


def dumps(golden: dict) -> str:
    """One case per line, so the file diffs by case."""
    lines = [
        f" {json.dumps(name)}: "
        f"{json.dumps(golden[name], sort_keys=True, separators=(',', ':'))}"
        for name in sorted(golden)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> None:
    GOLDEN_PATH.write_text(dumps(compute_golden()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
