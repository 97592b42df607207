"""Property-based certification of schedulers against the exact optimum.

On small random instances the branch-and-bound optimum is computable, so
we can *certify* that:

* no scheduler ever beats the optimum (would indicate a validation bug);
* MCTS with a healthy budget stays close to the optimum;
* Graphene's derived orders are permutations and its best-of-8 result is
  never worse than the worst single plan.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.config import ClusterConfig, EnvConfig, MctsConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.mcts import MctsScheduler
from repro.metrics import validate_schedule
from repro.schedulers import (
    BranchAndBoundScheduler,
    GrapheneScheduler,
    ScheduleRequest,
    make_scheduler,
)

ENV = EnvConfig(
    cluster=ClusterConfig(capacities=(10, 10), horizon=8),
    max_ready=8,
    process_until_completion=True,
)


def tiny_graph(seed, num_tasks):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=4,
        max_demand=7,
        runtime_mean=2,
        runtime_std=1,
        demand_mean=4,
        demand_std=2,
    )
    return random_layered_dag(workload, seed=seed)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_tasks=st.integers(2, 7))
def test_no_heuristic_beats_the_certified_optimum(seed, num_tasks):
    graph = tiny_graph(seed, num_tasks)
    optimal = BranchAndBoundScheduler(ENV).plan(ScheduleRequest(graph)).makespan
    for name in ("tetris", "sjf", "cp", "graphene", "heft", "lpt", "fifo"):
        heuristic = make_scheduler(name, ENV).plan(ScheduleRequest(graph))
        validate_schedule(heuristic, graph, ENV.cluster.capacities)
        assert heuristic.makespan >= optimal


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_tasks=st.integers(2, 6))
def test_mcts_tracks_the_optimum_on_tiny_instances(seed, num_tasks):
    graph = tiny_graph(seed, num_tasks)
    optimal = BranchAndBoundScheduler(ENV).plan(ScheduleRequest(graph)).makespan
    mcts = MctsScheduler(
        MctsConfig(initial_budget=60, min_budget=15), ENV, seed=seed % 1000
    )
    found = mcts.plan(ScheduleRequest(graph)).makespan
    assert found >= optimal
    # Tiny search spaces: a 60-iteration budget should land within 25%.
    assert found <= optimal * 1.25 + 1


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(2, 12),
    threshold=st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    direction=st.sampled_from(["forward", "backward"]),
)
def test_graphene_plans_are_permutations(seed, num_tasks, threshold, direction):
    graph = tiny_graph(seed, num_tasks)
    scheduler = GrapheneScheduler(env_config=ENV)
    plan = scheduler.build_plan(graph, threshold, direction)
    assert sorted(plan.order) == list(graph.task_ids)
    assert set(plan.troublesome) <= set(graph.task_ids)
    # Virtual placement may legally violate dependencies (the online pass
    # restores feasibility), so the virtual makespan is only bounded below
    # by the longest single task, not by the critical path.
    assert plan.virtual_makespan >= max(t.runtime for t in graph)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_tasks=st.integers(2, 6))
def test_every_registered_scheduler_is_verifier_clean(seed, num_tasks):
    """Every scheduler in the registry emits a schedule that passes the
    full invariant set of repro.analysis.verifier — both through the
    ``verify=true`` wrapper (which would raise) and by direct report."""
    from repro.analysis import verify_schedule
    from repro.schedulers import available_schedulers

    graph = tiny_graph(seed, num_tasks)
    for name in available_schedulers():
        schedule = make_scheduler(name, ENV, verify=True).plan(ScheduleRequest(graph))
        report = verify_schedule(schedule, graph, ENV.cluster.capacities)
        assert report.ok, f"{name}: {report.summary()}"
        assert not report.violations


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_tasks=st.integers(2, 10))
def test_graphene_best_of_candidates_is_minimal(seed, num_tasks):
    from repro.env import SchedulingEnv
    from repro.schedulers import GreedyPolicy, run_policy
    from repro.schedulers.rules import plan_priority_ranker

    graph = tiny_graph(seed, num_tasks)
    scheduler = GrapheneScheduler(env_config=ENV)
    best = scheduler.plan(ScheduleRequest(graph)).makespan
    singles = []
    for plan in scheduler.candidate_plans(graph):
        env = SchedulingEnv(graph, ENV)
        singles.append(run_policy(env, GreedyPolicy(plan_priority_ranker([plan.order]), "plan")).makespan)
    assert best == min(singles)
