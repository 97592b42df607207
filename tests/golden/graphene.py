"""Golden Graphene plans: every candidate plan and the final schedule pinned.

``graphene_golden.json`` holds, per case:

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

Cut while the virtual space was a dense ``(resource, slot)`` NumPy grid
and never regenerated: the step-function profile that replaced it must
reproduce every candidate and every placement.
"""

from __future__ import annotations

from repro import ClusterConfig, EnvConfig, ScheduleRequest
from repro.dag.examples import MOTIVATING_CAPACITY
from repro.schedulers.base import _planning_config
from repro.schedulers.graphene import GrapheneScheduler
from tests.golden import degraded_request, expected, graph, placements

FILE = "graphene_golden.json"
LAYOUT = "one-case-per-line"
NAMES = ("layered30", "layered100", "layered3r", "mapreduce", "fig3", "degraded30")
CASES = {name: (FILE, name) for name in NAMES}


def compute(name: str) -> dict:
    dag = graph(name)
    capacities = MOTIVATING_CAPACITY if name == "fig3" else (20,) * dag.num_resources
    env_config = EnvConfig(
        cluster=ClusterConfig(capacities=capacities), process_until_completion=True
    )
    request = degraded_request(dag) if name == "degraded30" else ScheduleRequest(dag)
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
        for plan in planner.candidate_plans(dag)
    ]
    schedule = GrapheneScheduler(env_config=env_config).plan(request)
    return {"candidates": candidates, "plan": placements(schedule)}


def check_every_case_has_eight_candidates_and_places_every_task():
    for name in NAMES:
        case = expected("graphene", name)
        assert len(case["candidates"]) == 8, name
        assert len(case["plan"]) == graph(name).num_tasks, name


def check_the_candidates_are_not_all_alike():
    """The golden would pin little about packing if every candidate agreed:
    on each random DAG, forward and backward placement give different
    orders and the thresholds give different troublesome sets."""
    for name in ("layered30", "layered100", "layered3r", "mapreduce", "degraded30"):
        candidates = expected("graphene", name)["candidates"]
        assert len({tuple(c["order"]) for c in candidates}) > 2, name
        assert len({tuple(c["troublesome"]) for c in candidates}) > 1, name
