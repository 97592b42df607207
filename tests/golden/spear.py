"""Golden Spear plans: fixed-seed network-guided searches pinned exactly.

``spear_plan_golden.json`` holds the makespan and every task's start of
``spear:budget=20,min_budget=5`` on three seeded 20-task layered DAGs,
once guided by the windowed MLP and once by the graph policy (freshly
initialized, fixed seed — the plans depend on the network's sampled
rollouts, not on it being trained).

Cut before the single-state policy step was fused (forced moves skip the
forward, one shared inverse-CDF sampler) and never regenerated, so it
pins that the fused step changes neither an action nor the RNG stream of
a whole search.
"""

from __future__ import annotations

from repro import ScheduleRequest, make_scheduler
from repro.core.pipeline import default_graph_network, default_network
from tests.golden import event_env, layered, plan_record

FILE = "spear_plan_golden.json"
LAYOUT = "indent"
SPEC = "spear:budget=20,min_budget=5"
HEADER = {"spec": SPEC}
GRAPH_SEEDS = (101, 202, 303)
NUM_TASKS = 20
PLANS = [(model, seed) for model in ("mlp", "gnn") for seed in GRAPH_SEEDS]
CASES = {f"{model}-{seed}": (FILE, "plans", i) for i, (model, seed) in enumerate(PLANS)}


def scheduler(model: str, seed: int):
    """The case's scheduler (a fresh ``model`` network) and its DAG."""
    env = event_env()
    make_network = default_network if model == "mlp" else default_graph_network
    spear = make_scheduler(SPEC, env, network=make_network(env, seed=seed), seed=seed)
    return spear, layered(NUM_TASKS, seed)


def compute(case: str) -> dict:
    model, seed = case.split("-")
    spear, graph = scheduler(model, int(seed))
    schedule = spear.plan(ScheduleRequest(graph))
    return {"model": model, "graph_seed": int(seed), **plan_record(schedule, graph)}
