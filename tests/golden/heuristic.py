"""Golden heuristic schedules: every list heuristic's episode pinned exactly.

``heuristic_plan_golden.json`` holds, for each of ``tetris sjf cp heft
lpt fifo graphene`` (Graphene's online half: a
:func:`~repro.schedulers.rules.plan_priority_ranker` over one of its
derived orders, plus the same
order with every other task missing so the rank fallback is exercised):

* ``episode/...`` — ``start_times()``, ``steps_taken`` and the makespan of
  ``run_policy`` from a fresh environment and from a mid-episode one
  (five seeded random legal moves first), on a 30- and a 100-task layered
  DAG, a 3-resource layered DAG and a MapReduce DAG, under event and
  unit-slot processing, through the default window and through
  ``max_ready=3`` (so a backlog exists);
* ``rollout/...`` — ``GreedyRollout().rollout`` makespans from the same
  fresh and mid-episode states (default Tetris, and CP, which reads
  per-graph features);
* ``plan/...`` — the placements the registry schedulers (``graphene``
  being the whole planner here) return for a replan request whose
  cluster snapshot carries degraded capacities.

Cut at the last commit whose heuristics each spelled out their own
``select`` and whose episode loops stepped one ``select`` at a time, so
routing the episode through one ``Policy.playout`` must change no start
time, no step count and no makespan.
Regenerated once (``plan/graphene/...``): CHANGES.md, "One lint pass, two rules".
"""

from __future__ import annotations

import functools

import numpy as np

from repro import ClusterConfig, EnvConfig, ScheduleRequest, make_scheduler
from repro.env.scheduling_env import SchedulingEnv
from repro.mcts.policies import GreedyRollout
from repro.schedulers.base import GreedyPolicy, run_policy
from repro.schedulers.graphene import GrapheneScheduler
from repro.schedulers.policies import greedy_policy
from repro.schedulers.rules import plan_priority_ranker
from tests.golden import degraded_request, expected, graph, layered, placements

FILE = "heuristic_plan_golden.json"
LAYOUT = "one-case-per-line"

HEURISTICS = ("tetris", "sjf", "cp", "heft", "lpt", "fifo")
POLICIES = (*HEURISTICS, "graphene", "priority-partial")
SCHEDULERS = (*HEURISTICS, "graphene")
#: The case's graph name -> the catalogue's (this golden's MapReduce DAG
#: has demand ties; Graphene's has none).
GRAPHS = {
    "layered30": "layered30",
    "layered100": "layered100",
    "layered3r": "layered3r",
    "mapreduce": "mapreduce-ties",
}
DEGRADED_GRAPHS = ("degraded30", "mapreduce")
#: label -> (process_until_completion, max_ready or None for the default).
ENVS = {
    "event-default": (True, None),
    "event-window3": (True, 3),
    "slot-default": (False, None),
    "slot-window3": (False, 3),
}
PREFIX_MOVES = 5
PREFIX_SEED = 20
#: The Graphene candidate whose derived order the ``graphene`` policy rows
#: execute (backward placement puts troublesome tasks out of dependency
#: order, so the online pass has something to repair).
GRAPHENE_PLAN = (0.4, "backward")

CASE_IDS = [
    *(f"episode/{p}/{g}/{e}" for p in POLICIES for g in GRAPHS for e in ENVS),
    *(f"rollout/{g}/{e}" for g in GRAPHS for e in ENVS),
    *(
        f"plan/{s}/{g}/{mode}"
        for s in SCHEDULERS
        for g in DEGRADED_GRAPHS
        for mode in ("event", "slot")
    ),
]
CASES = {case: (FILE, case) for case in CASE_IDS}


def make_graph(name: str):
    return graph(GRAPHS.get(name, name))


def make_config(dag, until_completion: bool, max_ready=None):
    overrides = {} if max_ready is None else {"max_ready": max_ready}
    return EnvConfig(
        cluster=ClusterConfig(capacities=(20,) * dag.num_resources),
        process_until_completion=until_completion,
        **overrides,
    )


@functools.cache
def graphene_order(graph_name: str):
    dag = make_graph(graph_name)
    planner = GrapheneScheduler(env_config=make_config(dag, True))
    return planner.build_plan(dag, *GRAPHENE_PLAN).order


def make_policy(name: str, graph_name: str):
    if name in HEURISTICS:
        return greedy_policy(name)
    order = graphene_order(graph_name)
    if name == "priority-partial":
        order = order[1::2]
    return GreedyPolicy(plan_priority_ranker([order]), name)


def make_env(graph_name: str, env_label: str, prefix: bool):
    """A fresh environment, or one ``PREFIX_MOVES`` random legal moves in."""
    dag = make_graph(graph_name)
    env = SchedulingEnv(dag, make_config(dag, *ENVS[env_label]))
    if prefix:
        rng = np.random.default_rng(PREFIX_SEED)
        for _ in range(PREFIX_MOVES):
            actions = env.legal_actions()
            env.step(actions[int(rng.integers(len(actions)))])
    return env


def episode(policy_name: str, graph_name: str, env_label: str) -> dict:
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
    return {
        label: [
            rollout.rollout(make_env(graph_name, env_label, prefix))
            for prefix in (False, True)
        ]
        for label, rollout in (
            ("default", GreedyRollout()),
            ("cp", GreedyRollout(functools.partial(greedy_policy, "cp"))),
        )
    }


def compute(case: str):
    kind, *rest = case.split("/")
    if kind == "episode":
        return episode(*rest)
    if kind == "rollout":
        return rollouts(*rest)
    scheduler, graph_name, mode = rest
    env_config = EnvConfig(process_until_completion=mode == "event")
    schedule = make_scheduler(scheduler, env_config).plan(
        degraded_request(make_graph(graph_name))
    )
    return placements(schedule)


def check_the_cases_are_not_all_forced():
    """The golden would pin nothing about ranking if no state offered a
    choice: every graph has episodes where policies disagree."""
    for dag in GRAPHS:
        cases = [
            expected("heuristic", f"episode/{p}/{dag}/event-default") for p in POLICIES
        ]
        assert len({case["fresh"]["makespan"] for case in cases}) > 2, dag


CHECK_PARAMS = {
    "check_degraded_fit": [f"{s}-{g}" for s in SCHEDULERS for g in DEGRADED_GRAPHS]
}


def check_degraded_fit(plan: str):
    """Every planner reads the request's cluster snapshot: the verifier
    (``ScheduleError`` on any violation) checks the plan against the
    degraded capacities, not the configured ones."""
    name, graph_name = plan.split("-")
    dag = make_graph(graph_name)
    schedule = make_scheduler(name, verify=True).plan(degraded_request(dag))
    assert len(schedule.placements) == dag.num_tasks


def check_optimal_plans_the_degraded_request():
    dag = layered(8, 404, degraded=True)
    schedule = make_scheduler("optimal:verify=true").plan(degraded_request(dag))
    # The degraded optimum can be no shorter than the full-cluster one.
    full = make_scheduler("optimal").plan(ScheduleRequest(dag))
    assert schedule.makespan >= full.makespan
