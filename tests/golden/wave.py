"""Golden wave searches: fixed-seed batched (``rollout_batch=8``) plans.

``wave_search_golden.json`` holds the makespan, every task's start and
the search statistics (iterations, rollouts, decisions) of batched
pure-MCTS searches (random expansion; each wave's lanes played one by
one with ``SchedulingEnv.random_playout`` from the policy's one
generator) on three seeded 20-task layered DAGs, plus one replan request
whose cluster snapshot carries degraded capacities.  Every plan is
checked with ``validate_schedule`` as it is computed.  The ``model`` /
``leaf_policy`` keys of a case are always ``None``: the file also held
network-guided waves until batched leaf evaluation was deleted.

Regenerated once: CHANGES.md, "Waves play their lanes with the scalar
playout" (start times moved, makespans did not).
"""

from __future__ import annotations

from repro import MctsConfig, ScheduleRequest
from repro.mcts.search import MctsScheduler
from repro.metrics import validate_schedule
from tests.golden import (
    DEGRADED_CAPACITIES, degraded_request, event_env, layered, plan_record
)

FILE = "wave_search_golden.json"
LAYOUT = "indent"
ROLLOUT_BATCH = 8
HEADER = {"rollout_batch": ROLLOUT_BATCH}
GRAPH_SEEDS = (101, 202, 303)
CASES = {
    **{f"mcts-{seed}": (FILE, "plans", i) for i, seed in enumerate(GRAPH_SEEDS)},
    # The replan case: tasks small enough to fit the degraded cluster, so
    # the search really plans against the snapshot's capacities.
    "mcts-degraded-404": (FILE, "degraded_plans", 0),
}


def compute(case: str) -> dict:
    seed = int(case.rsplit("-", 1)[1])
    record = {"scheduler": "mcts", "model": None, "leaf_policy": None, "graph_seed": seed}
    if "degraded" in case:
        request = degraded_request(layered(20, seed, degraded=True))
        capacities = DEGRADED_CAPACITIES
        record["capacities"] = list(capacities)
    else:
        request = ScheduleRequest(layered(20, seed))
        capacities = event_env().cluster.capacities
    config = MctsConfig(initial_budget=24, min_budget=8, rollout_batch=ROLLOUT_BATCH)
    scheduler = MctsScheduler(config, event_env(), seed=seed)
    schedule = scheduler.plan(request)
    validate_schedule(schedule, request.graph, capacities)
    stats = scheduler.last_statistics
    fields = ("iterations", "rollouts", "decisions")
    return {**record, **plan_record(schedule, request.graph, stats, fields)}
