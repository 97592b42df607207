"""Scheduling laws that hold whatever the code: anchors outside it.

* **Time scaling.**  Multiplying every runtime by ``k`` multiplies every
  start, and so the makespan, by ``k``: no deterministic heuristic looks
  at absolute time, offline under either processing granularity or
  online.
* **A faultless run replays into itself.**  With no faults, every task
  of every job runs once for its graph runtime, and ``verify_execution``
  finds each executed schedule feasible on the graph it executed.
* **Graham's anomaly.**  More capacity can *lengthen* a greedy schedule
  (Graham, 1969), so "more capacity never hurts" is not a law for list
  heuristics; it is pinned on a hand-checkable instance instead, next to
  the exact optimum, which cannot get worse.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag import Task, TaskGraph, independent_tasks_dag
from repro.dag.features import compute_features
from repro.dag.generators import random_layered_dag
from repro.online import (
    ArrivingJob,
    OnlineSimulator,
    plan_priority_ranker,
    verify_execution,
)
from repro.online.policy import resolve_ranker
from repro.schedulers import ScheduleRequest, make_scheduler

HEURISTICS = ("tetris", "sjf", "cp", "heft", "lpt", "fifo", "graphene")
ONLINE_RULES = ("fifo", "sjf", "cp", "tetris", "priority")


def scaled(graph, k):
    return TaskGraph(
        [Task(t.task_id, t.runtime * k, t.demands) for t in graph],
        list(graph.edges()),
    )


def times(schedule, k=1):
    return {p.task_id: (p.start * k, p.finish * k) for p in schedule.placements}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    num_tasks=st.integers(1, 30),
    k=st.integers(2, 3),
    spec=st.sampled_from(HEURISTICS),
    until_completion=st.booleans(),
)
def test_scaling_runtimes_scales_an_offline_schedule(
    seed, num_tasks, k, spec, until_completion
):
    graph = random_layered_dag(WorkloadConfig(num_tasks=num_tasks), seed=seed)
    scheduler = make_scheduler(
        spec, EnvConfig(process_until_completion=until_completion)
    )
    base = scheduler.plan(ScheduleRequest(graph))
    stretched = scheduler.plan(ScheduleRequest(scaled(graph, k)))
    assert stretched.makespan == k * base.makespan
    assert times(stretched) == times(base, k)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    num_tasks=st.integers(1, 30),
    k=st.integers(2, 3),
    rule=st.sampled_from(ONLINE_RULES),
)
def test_scaling_runtimes_scales_an_online_run(seed, num_tasks, k, rule):
    graph = random_layered_dag(WorkloadConfig(num_tasks=num_tasks), seed=seed)
    if rule == "priority":
        ranker = plan_priority_ranker([compute_features(graph).priority_order()])
    else:
        ranker = resolve_ranker(rule)
    simulator = OnlineSimulator(ClusterConfig())
    base = simulator.run([ArrivingJob(0, graph)], ranker)
    stretched = simulator.run([ArrivingJob(0, scaled(graph, k))], ranker)
    assert stretched.makespan == k * base.makespan
    assert times(stretched.executed[0]) == times(base.executed[0], k)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=4),
    gap=st.integers(0, 15),
    rule=st.sampled_from(ONLINE_RULES),
    capacity=st.integers(20, 30),
)
def test_a_faultless_run_replays_into_itself(seed, sizes, gap, rule, capacity):
    graphs = [
        random_layered_dag(WorkloadConfig(num_tasks=n), seed=seed + i)
        for i, n in enumerate(sizes)
    ]
    stream = [ArrivingJob(i * gap, graph) for i, graph in enumerate(graphs)]
    if rule == "priority":
        ranker = plan_priority_ranker(
            [compute_features(graph).priority_order() for graph in graphs]
        )
    else:
        ranker = resolve_ranker(rule)
    cluster = ClusterConfig(capacities=(capacity, capacity))
    result = OnlineSimulator(cluster).run(stream, ranker)
    assert len(result.executed) == len(result.outcomes) == len(graphs)
    for outcome, schedule in zip(result.outcomes, result.executed):
        assert not outcome.failed
        durations = {p.task_id: p.duration for p in schedule.placements}
        assert durations == dict(graphs[outcome.job_index].runtime_table())
    reports = verify_execution(result, stream, cluster.capacities)
    assert all(report is not None and report.ok for report in reports), [
        str(report) for report in reports
    ]


#: Three independent tasks, runtimes (2, 2, 3), demands (2, 2), (2, 2),
#: (1, 1).  On (3, 3) sjf starts task 0 and, since task 1 no longer
#: fits, task 2 at t = 0; task 1 follows at 2 and ends at 4.  On (4, 4)
#: tasks 0 and 1 fill the cluster at t = 0, and task 2 waits until 2 and
#: ends at 5.
ANOMALY = independent_tasks_dag([2, 2, 3], demands=[(2, 2), (2, 2), (1, 1)])


@pytest.mark.parametrize("spec", ["sjf", "fifo", "tetris"])
def test_more_capacity_can_lengthen_a_greedy_schedule(spec):
    def makespan(name, capacity):
        config = EnvConfig(
            cluster=ClusterConfig(capacities=(capacity, capacity)),
            process_until_completion=True,
        )
        return make_scheduler(name, config).plan(ScheduleRequest(ANOMALY)).makespan

    assert makespan(spec, 3) == 4
    assert makespan(spec, 4) == 5
    assert makespan("optimal", 3) == makespan("optimal", 4) == 4
    # The online twin of the rule shows the same anomaly.
    online = [
        OnlineSimulator(ClusterConfig(capacities=(c, c)))
        .run([ArrivingJob(0, ANOMALY)], resolve_ranker(spec))
        .makespan
        for c in (3, 4)
    ]
    assert online == [4, 5]
