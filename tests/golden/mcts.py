"""Golden sequential searches: fixed-seed pure-MCTS (``rollout_batch=1``) plans.

``mcts_plan_golden.json`` holds, per case, the makespan, every task's
start, the search statistics (iterations, rollouts, decisions, deepest
tree path, the per-decision budgets) and the final
``bit_generator.state`` of the generator the expansion and rollout
policies share:

* ``default-<seed>`` — the default search on the three seeded 20-task
  layered DAGs of the wave golden;
* ``degraded-404`` — one replan request whose cluster snapshot carries
  degraded capacities;
* ``<switch>-<seed>`` — one plan each with ``use_expansion_filters``,
  ``use_max_value_ucb`` and ``use_budget_decay`` switched off.

Cut at the last commit whose sequential search was its own loop and
never regenerated: a sequential search is the wave collector at width
1, so every node visit, every RNG draw and every plan must be unchanged.
"""

from __future__ import annotations

import numpy as np

from repro import MctsConfig, ScheduleRequest
from repro.mcts.search import MctsScheduler
from tests.golden import (
    DEGRADED_CAPACITIES, degraded_request, event_env, layered, plan_record
)

FILE = "mcts_plan_golden.json"
LAYOUT = "indent"
BUDGET = {"initial_budget": 24, "min_budget": 8}
HEADER = {"budget": BUDGET}
GRAPH_SEEDS = (101, 202, 303)
#: One ablation switch per plan, each on its own DAG.
ABLATIONS = (
    ("use_expansion_filters", 101),
    ("use_max_value_ucb", 202),
    ("use_budget_decay", 303),
)
CASES = {
    **{f"default-{seed}": (FILE, "plans", i) for i, seed in enumerate(GRAPH_SEEDS)},
    "degraded-404": (FILE, "degraded_plan"),
    **{
        f"{switch}-{seed}": (FILE, "ablation_plans", i)
        for i, (switch, seed) in enumerate(ABLATIONS)
    },
}
STATISTICS = ("iterations", "rollouts", "decisions", "max_tree_depth", "budgets")


def compute(case: str) -> dict:
    switch, seed = case.rsplit("-", 1)
    seed = int(seed)
    overrides = {}
    if switch == "degraded":
        # Tasks small enough to fit the degraded cluster, so the search
        # plans against the snapshot.
        request = degraded_request(layered(20, seed, degraded=True))
        record = {"graph_seed": seed, "capacities": list(DEGRADED_CAPACITIES)}
    else:
        request = ScheduleRequest(layered(20, seed))
        record = {"graph_seed": seed, "disabled": None}
        if switch != "default":
            record["disabled"], overrides = switch, {switch: False}
    rng = np.random.default_rng(seed)
    scheduler = MctsScheduler(MctsConfig(**BUDGET, **overrides), event_env(), seed=rng)
    schedule = scheduler.plan(request)
    return {
        **record,
        **plan_record(schedule, request.graph, scheduler.last_statistics, STATISTICS),
        "rng_state": rng.bit_generator.state,
    }
