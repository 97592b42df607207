"""Unit tests for the MCTS scheduler."""

import pytest

from repro.config import ClusterConfig, EnvConfig, MctsConfig
from repro.dag import chain_dag, independent_tasks_dag, motivating_example
from repro.dag.examples import MOTIVATING_CAPACITY, MOTIVATING_T
from repro.mcts import GreedyRollout, MctsScheduler, RandomExpansion, RandomRollout
from repro.metrics import validate_schedule
from repro.schedulers.base import ScheduleRequest


@pytest.fixture
def env_config():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=8),
        max_ready=8,
        process_until_completion=True,
    )


def mcts(budget=50, min_budget=10, env_config=None, seed=0, **kwargs):
    return MctsScheduler(
        MctsConfig(initial_budget=budget, min_budget=min_budget, **kwargs),
        env_config,
        seed=seed,
    )


class TestBasics:
    def test_chain_is_forced(self, env_config):
        graph = chain_dag([2, 3, 1], demands=[(1, 1)] * 3)
        schedule = mcts(env_config=env_config).plan(ScheduleRequest(graph))
        assert schedule.makespan == 6
        assert schedule.scheduler == "mcts"

    def test_schedule_is_feasible(self, env_config, small_random_graph):
        schedule = mcts(env_config=env_config).plan(
            ScheduleRequest(small_random_graph)
        )
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )

    def test_single_task(self, env_config):
        graph = chain_dag([4], demands=[(2, 2)])
        schedule = mcts(env_config=env_config).plan(ScheduleRequest(graph))
        assert schedule.makespan == 4

    def test_statistics_populated(self, env_config, small_random_graph):
        scheduler = mcts(budget=20, min_budget=5, env_config=env_config)
        scheduler.plan(ScheduleRequest(small_random_graph))
        stats = scheduler.last_statistics
        assert stats is not None
        assert stats.decisions > 0
        assert stats.iterations >= stats.decisions
        assert stats.rollouts > 0
        assert stats.exploration_constant > 0

    def test_budget_decay_recorded(self, env_config, small_random_graph):
        scheduler = mcts(budget=40, min_budget=5, env_config=env_config)
        scheduler.plan(ScheduleRequest(small_random_graph))
        budgets = scheduler.last_statistics.budgets
        assert budgets[0] == 40
        assert budgets[1] == 20
        assert min(budgets) >= 5

    def test_flat_budget_when_decay_disabled(self, env_config, small_random_graph):
        scheduler = mcts(
            budget=15, min_budget=5, env_config=env_config, use_budget_decay=False
        )
        scheduler.plan(ScheduleRequest(small_random_graph))
        assert set(scheduler.last_statistics.budgets) == {15}


class TestOptimality:
    def test_finds_optimal_on_motivating_example(self):
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=MOTIVATING_CAPACITY, horizon=20),
            process_until_completion=True,
        )
        graph = motivating_example()
        schedule = mcts(budget=300, min_budget=30, env_config=env_config).plan(
            ScheduleRequest(graph)
        )
        validate_schedule(schedule, graph, MOTIVATING_CAPACITY)
        assert schedule.makespan == 2 * MOTIVATING_T

    def test_packs_independent_tasks(self, env_config):
        # Four unit tasks, two fit at a time: optimum 2.
        graph = independent_tasks_dag([1] * 4, demands=[(5, 5)] * 4)
        schedule = mcts(budget=100, min_budget=20, env_config=env_config).plan(
            ScheduleRequest(graph)
        )
        assert schedule.makespan == 2


class TestDeterminismAndSeeding:
    def test_same_seed_same_result(self, env_config, small_random_graph):
        request = ScheduleRequest(small_random_graph)
        a = mcts(env_config=env_config, seed=3).plan(request)
        b = mcts(env_config=env_config, seed=3).plan(request)
        assert a.makespan == b.makespan
        assert a.as_dict() == b.as_dict()


class TestConfigKnobs:
    def test_no_filters_still_feasible(self, env_config, small_random_graph):
        scheduler = mcts(
            env_config=env_config, use_expansion_filters=False
        )
        schedule = scheduler.plan(ScheduleRequest(small_random_graph))
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )

    def test_mean_ucb_still_feasible(self, env_config, small_random_graph):
        scheduler = mcts(env_config=env_config, use_max_value_ucb=False)
        schedule = scheduler.plan(ScheduleRequest(small_random_graph))
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )

    def test_custom_rollout_policy(self, env_config, small_random_graph):
        scheduler = MctsScheduler(
            MctsConfig(initial_budget=20, min_budget=5),
            env_config,
            rollout=GreedyRollout(),
            seed=0,
        )
        schedule = scheduler.plan(ScheduleRequest(small_random_graph))
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )

    def test_default_env_uses_event_skipping(self):
        scheduler = MctsScheduler(MctsConfig(initial_budget=10, min_budget=5))
        assert scheduler.env_config.process_until_completion


class TestRolloutBatch:
    """``rollout_batch > 1`` batches pure MCTS under every ``EnvConfig``
    or fails loudly — never a silent sequential search."""

    def test_spear_spec_has_no_rollout_batch_key(self):
        from repro import make_scheduler
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as error:
            make_scheduler(
                "spear:rollout_batch=8", EnvConfig(process_until_completion=True)
            )
        message = str(error.value)
        assert (
            "scheduler spec 'spear:rollout_batch=8': unknown key 'rollout_batch'"
            in message
        )
        assert (
            "known: ['budget', 'min_budget', 'network', 'rollout_mode', 'seed', "
            in message
        )

    def test_spear_scheduler_rejects_a_wave_config(self, env_config):
        from repro.core import SpearScheduler
        from repro.core.pipeline import default_network
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="NetworkRollout"):
            SpearScheduler(
                default_network(env_config, seed=0),
                MctsConfig(rollout_batch=8),
                env_config,
            )

    def test_wave_rollouts_are_random_playouts_of_its_lanes(
        self, env_config, small_random_graph, monkeypatch
    ):
        """A wave plays its lanes one ``random_playout`` call each, from
        the policy's one generator, after all of them are collected."""
        from repro.env import SchedulingEnv

        scheduler = mcts(
            budget=24, min_budget=8, env_config=env_config, rollout_batch=8
        )
        lanes_per_round = []
        new_round = [True]
        inner_playout = SchedulingEnv.random_playout
        inner_collect = MctsScheduler._collect

        def playout(env, rng, limit):
            assert rng is scheduler.rollout._rng
            if new_round[0]:
                lanes_per_round.append(0)
                new_round[0] = False
            lanes_per_round[-1] += 1
            return inner_playout(env, rng, limit)

        def collect(self, *args):
            new_round[0] = True
            return inner_collect(self, *args)

        monkeypatch.setattr(SchedulingEnv, "random_playout", playout)
        monkeypatch.setattr(MctsScheduler, "_collect", collect)
        schedule = scheduler.plan(ScheduleRequest(small_random_graph))
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )
        assert lanes_per_round and max(lanes_per_round) > 1
        stats = scheduler.last_statistics
        assert stats.iterations == sum(stats.budgets)
        assert stats.rollouts == sum(lanes_per_round)

    def test_unbatchable_rollout_policy_is_a_config_error(self, env_config):
        from repro.core import NetworkRollout
        from repro.core.pipeline import default_network
        from repro.errors import ConfigError

        network = default_network(env_config, seed=0)
        for rollout in (GreedyRollout(), NetworkRollout(network)):
            with pytest.raises(ConfigError, match=type(rollout).__name__):
                MctsScheduler(
                    MctsConfig(initial_budget=20, min_budget=5, rollout_batch=8),
                    env_config,
                    rollout=rollout,
                )
            # The same policies still search sequentially.
            MctsScheduler(
                MctsConfig(initial_budget=20, min_budget=5),
                env_config,
                rollout=rollout,
            )


class TestPolicies:
    def test_random_expansion_permutes(self, env_config):
        graph = independent_tasks_dag([1] * 4, demands=[(1, 1)] * 4)
        from repro.env import SchedulingEnv

        env = SchedulingEnv(graph, env_config)
        expansion = RandomExpansion(seed=0)
        order = expansion.prioritize(env, [0, 1, 2, 3])
        assert sorted(order) == [0, 1, 2, 3]

    def test_random_rollout_returns_makespan(self, env_config, small_random_graph):
        from repro.env import SchedulingEnv

        env = SchedulingEnv(small_random_graph, env_config)
        makespan = RandomRollout(seed=0).rollout(env)
        assert makespan == env.makespan
        assert env.done

    def test_greedy_rollout_deterministic(self, env_config, small_random_graph):
        from repro.env import SchedulingEnv

        a = GreedyRollout().rollout(SchedulingEnv(small_random_graph, env_config))
        b = GreedyRollout().rollout(SchedulingEnv(small_random_graph, env_config))
        assert a == b
