"""Online dispatch vs the offline environment: one rule, one schedule.

The list heuristics are one rule each (:mod:`repro.schedulers.rules`),
run by two executors that share no code: the offline
:class:`~repro.env.scheduling_env.SchedulingEnv` under
:class:`~repro.schedulers.base.GreedyPolicy`, and the online
:class:`~repro.online.OnlineSimulator` (the sharded engine and its event
kernel).  With event processing and a visible window at least as wide as
any ready set, they must start every task at the same instant:

* one job at t = 0, for every rule with an online twin (fifo, sjf, cp,
  tetris and a plan's priority order);
* a closed batch of jobs at t = 0 against the offline plan of the
  disjoint union of their DAGs, for sjf, cp and tetris (their keys order
  jobs only on ties, as the union's ids do; fifo and priority order rank
  jobs before tasks, so they are compared on one job only).

Each executor is thereby the other's oracle.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag import Task, TaskGraph
from repro.dag.features import compute_features
from repro.dag.generators import random_layered_dag
from repro.env import SchedulingEnv
from repro.online import ArrivingJob, OnlineSimulator, plan_priority_ranker
from repro.schedulers import GreedyPolicy, greedy_policy, run_policy
from repro.schedulers.rules import RANKERS

CLUSTER = ClusterConfig()
ONE_JOB_RULES = ("fifo", "sjf", "cp", "tetris", "priority")
BATCH_RULES = ("sjf", "cp", "tetris")


def offline_starts(graph, policy):
    env = SchedulingEnv(
        graph,
        EnvConfig(
            cluster=CLUSTER,
            max_ready=graph.num_tasks,  # no backlog: every ready task ranks
            process_until_completion=True,
        ),
    )
    run_policy(env, policy)
    return env.start_times()


def online_starts(graphs, ranker):
    result = OnlineSimulator(CLUSTER).run(
        [ArrivingJob(0, graph) for graph in graphs], ranker
    )
    assert not any(outcome.failed for outcome in result.outcomes)
    return [
        {p.task_id: p.start for p in schedule.placements}
        for schedule in result.executed
    ]


def disjoint_union(graphs):
    """The DAGs side by side, job ``k``'s ids shifted past job ``k-1``'s."""
    tasks, edges, offsets, offset = [], [], [], 0
    for graph in graphs:
        offsets.append(offset)
        tasks += [Task(t.task_id + offset, t.runtime, t.demands) for t in graph]
        edges += [(a + offset, b + offset) for a, b in graph.edges()]
        offset += graph.num_tasks
    return TaskGraph(tasks, edges), offsets


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    num_tasks=st.integers(1, 100),
    rule=st.sampled_from(ONE_JOB_RULES),
)
@example(seed=0, num_tasks=100, rule="fifo")
@example(seed=1, num_tasks=100, rule="priority")
def test_one_job_starts_as_its_offline_plan(seed, num_tasks, rule):
    graph = random_layered_dag(WorkloadConfig(num_tasks=num_tasks), seed=seed)
    if rule == "priority":
        # A plan naming every other task of the CP order: the rest rank
        # last, by id.
        ranker = plan_priority_ranker([compute_features(graph).priority_order()[::2]])
        policy = GreedyPolicy(ranker, rule)
    else:
        ranker, policy = RANKERS[rule], greedy_policy(rule)
    assert online_starts([graph], ranker) == [offline_starts(graph, policy)]


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=3),
    num_tasks=st.integers(1, 30),
    rule=st.sampled_from(BATCH_RULES),
)
def test_a_closed_batch_starts_as_the_plan_of_its_union(seeds, num_tasks, rule):
    graphs = [
        random_layered_dag(WorkloadConfig(num_tasks=num_tasks), seed=seed)
        for seed in seeds
    ]
    union, offsets = disjoint_union(graphs)
    planned = offline_starts(union, greedy_policy(rule))
    expected = [
        {tid: planned[tid + offset] for tid in graph.task_ids}
        for graph, offset in zip(graphs, offsets)
    ]
    assert online_starts(graphs, RANKERS[rule]) == expected
