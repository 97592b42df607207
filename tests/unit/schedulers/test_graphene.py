"""Unit tests for the Graphene baseline."""

import pytest

from repro.config import ClusterConfig, EnvConfig, GrapheneConfig
from repro.dag import Task, TaskGraph, chain_dag
from repro.dag.generators import random_layered_dag
from repro.config import WorkloadConfig
from repro.metrics import validate_schedule
from repro.schedulers import GrapheneScheduler, ScheduleRequest


@pytest.fixture
def env_config():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=8), max_ready=8
    )


@pytest.fixture
def scheduler(env_config):
    return GrapheneScheduler(env_config=env_config)


class TestTroublesomeIdentification:
    def test_long_tasks_are_troublesome(self, scheduler):
        tasks = [Task(0, 10, (1, 1)), Task(1, 1, (1, 1))]
        graph = TaskGraph(tasks)
        troublesome = scheduler.identify_troublesome(graph, threshold=0.5)
        assert 0 in troublesome
        assert 1 not in troublesome

    def test_hungry_tasks_are_troublesome(self, scheduler):
        # Short but demanding >= 50% of a resource.
        tasks = [Task(0, 1, (6, 1)), Task(1, 10, (1, 1)), Task(2, 1, (1, 1))]
        graph = TaskGraph(tasks)
        troublesome = scheduler.identify_troublesome(graph, threshold=0.9)
        assert 0 in troublesome

    def test_threshold_one_keeps_only_max_runtime(self, scheduler):
        tasks = [Task(0, 10, (1, 1)), Task(1, 9, (1, 1))]
        graph = TaskGraph(tasks)
        troublesome = scheduler.identify_troublesome(graph, threshold=1.0)
        assert troublesome == [0]

    def test_low_threshold_keeps_everything(self, scheduler):
        graph = TaskGraph([Task(i, i + 1, (1, 1)) for i in range(4)])
        troublesome = scheduler.identify_troublesome(graph, threshold=0.1)
        assert len(troublesome) == 4


class TestPlanBuilding:
    def test_forward_plan_contains_all_tasks(self, scheduler, small_random_graph):
        plan = scheduler.build_plan(small_random_graph, 0.5, "forward")
        assert sorted(plan.order) == list(small_random_graph.task_ids)
        assert plan.direction == "forward"
        assert plan.virtual_makespan > 0

    def test_backward_plan_contains_all_tasks(self, scheduler, small_random_graph):
        plan = scheduler.build_plan(small_random_graph, 0.5, "backward")
        assert sorted(plan.order) == list(small_random_graph.task_ids)
        assert plan.direction == "backward"

    def test_troublesome_placed_by_descending_runtime_forward(self, scheduler):
        # Two independent troublesome tasks that cannot co-run: the longer
        # must be placed (and hence ordered) first.
        tasks = [Task(0, 3, (8, 8)), Task(1, 7, (8, 8))]
        graph = TaskGraph(tasks)
        plan = scheduler.build_plan(graph, 0.1, "forward")
        assert plan.order.index(1) < plan.order.index(0)

    def test_candidate_plan_count(self, scheduler, small_random_graph):
        plans = scheduler.candidate_plans(small_random_graph)
        config = GrapheneConfig()
        assert len(plans) == len(config.thresholds) * 2

    def test_plans_cover_both_directions(self, scheduler, small_random_graph):
        directions = {p.direction for p in scheduler.candidate_plans(small_random_graph)}
        assert directions == {"forward", "backward"}


class TestScheduling:
    def test_schedule_is_feasible(self, scheduler, small_random_graph, env_config):
        schedule = scheduler.plan(ScheduleRequest(small_random_graph))
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )
        assert schedule.scheduler == "graphene"

    def test_chain_is_serial(self, scheduler):
        graph = chain_dag([2, 3, 1], demands=[(1, 1)] * 3)
        schedule = scheduler.plan(ScheduleRequest(graph))
        assert schedule.makespan == 6

    def test_beats_or_matches_worst_plan(self, scheduler, small_random_graph):
        """best-of-8 must be at least as good as any single plan."""
        from repro.env import SchedulingEnv
        from repro.schedulers import GreedyPolicy, run_policy
        from repro.schedulers.rules import plan_priority_ranker

        best = scheduler.plan(ScheduleRequest(small_random_graph)).makespan
        for plan in scheduler.candidate_plans(small_random_graph):
            env = SchedulingEnv(small_random_graph, scheduler.env_config)
            policy = GreedyPolicy(plan_priority_ranker([plan.order]), "plan")
            single = run_policy(env, policy)
            assert best <= single.makespan

    def test_custom_thresholds(self, env_config, small_random_graph):
        scheduler = GrapheneScheduler(
            GrapheneConfig(thresholds=(0.5,)), env_config
        )
        assert len(scheduler.candidate_plans(small_random_graph)) == 2

    def test_never_worse_than_twice_lower_bound_on_small_graphs(self, env_config):
        """Sanity: Graphene stays within 2x of the bound on easy workloads."""
        from repro.dag.analysis import makespan_lower_bound

        scheduler = GrapheneScheduler(env_config=env_config)
        for seed in range(3):
            graph = random_layered_dag(
                WorkloadConfig(
                    num_tasks=10, max_runtime=5, max_demand=4,
                    runtime_mean=3, runtime_std=1, demand_mean=2, demand_std=1,
                ),
                seed=seed,
            )
            schedule = scheduler.plan(ScheduleRequest(graph))
            bound = makespan_lower_bound(graph, env_config.cluster.capacities)
            assert schedule.makespan <= 2 * bound
