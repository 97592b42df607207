"""Unit tests for root-parallel MCTS."""

import pytest

from repro.config import ClusterConfig, EnvConfig, MctsConfig
from repro.dag import chain_dag, motivating_example
from repro.dag.examples import MOTIVATING_CAPACITY, MOTIVATING_T
from repro.errors import ConfigError
from repro.mcts import MctsScheduler, RootParallelMcts
from repro.metrics import validate_schedule
from repro.schedulers.base import ScheduleRequest
from repro.telemetry import TelemetryConfig, session


@pytest.fixture
def env_config():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=8),
        max_ready=8,
        process_until_completion=True,
    )


MOTIVATING_ENV = EnvConfig(
    cluster=ClusterConfig(capacities=MOTIVATING_CAPACITY, horizon=20),
    process_until_completion=True,
)


class TestRootParallel:
    def test_feasible_schedule(self, env_config, small_random_graph):
        scheduler = RootParallelMcts(
            MctsConfig(initial_budget=10, min_budget=3),
            env_config,
            workers=3,
            seed=0,
        )
        schedule = scheduler.plan(ScheduleRequest(small_random_graph))
        validate_schedule(schedule, small_random_graph, (10, 10))
        assert schedule.scheduler == "mcts-parallel"

    def test_zero_workers_rejected(self, env_config):
        with pytest.raises(ConfigError):
            RootParallelMcts(workers=0, env_config=env_config)

    def test_best_of_k_never_worse_than_single_seeded_worker(
        self, env_config, small_random_graph
    ):
        """With the same derived seeds, best-of-3 <= each individual run."""
        config = MctsConfig(initial_budget=8, min_budget=3)
        parallel = RootParallelMcts(
            config, env_config, workers=3, seed=42
        )
        best = parallel.plan(ScheduleRequest(small_random_graph)).makespan

        from repro.utils.rng import as_generator, derive_seed

        rng = as_generator(42)
        singles = []
        for _ in range(3):
            seed = derive_seed(rng)
            single = MctsScheduler(config, env_config, seed=seed)
            schedule = single.plan(ScheduleRequest(small_random_graph))
            singles.append(schedule.makespan)
        assert best == min(singles)

    def test_chain_forced(self, env_config):
        graph = chain_dag([2, 3], demands=[(1, 1)] * 2)
        scheduler = RootParallelMcts(
            MctsConfig(initial_budget=5, min_budget=2),
            env_config,
            workers=2,
            seed=0,
        )
        assert scheduler.plan(ScheduleRequest(graph)).makespan == 5

    def test_finds_motivating_optimum_with_small_per_worker_budget(self):
        """Diversity pays: several small searches reach 2T reliably."""
        scheduler = RootParallelMcts(
            MctsConfig(initial_budget=100, min_budget=20),
            MOTIVATING_ENV,
            workers=4,
            seed=1,
        )
        graph = motivating_example()
        schedule = scheduler.plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, MOTIVATING_CAPACITY)
        assert schedule.makespan == 2 * MOTIVATING_T

    @pytest.mark.parametrize("rollout_batch", [1, 4])
    @pytest.mark.parametrize("instance", ["small_random", "motivating"])
    def test_processes_plan_what_the_sequential_path_plans(
        self, instance, rollout_batch, env_config, small_random_graph
    ):
        """A worker's outcome reaches the parent only through its return
        value, so the pool and the in-process loop agree byte for byte:
        start maps, makespans, and the parent's ``mcts.worker`` events."""
        if instance == "motivating":
            graph, env_config = motivating_example(), MOTIVATING_ENV
        else:
            graph = small_random_graph
        config = MctsConfig(
            initial_budget=10, min_budget=3, rollout_batch=rollout_batch
        )
        runs = []
        for use_processes in (False, True):
            scheduler = RootParallelMcts(
                config, env_config, workers=3, seed=7, use_processes=use_processes
            )
            with session(TelemetryConfig(enabled=True)) as tm:
                schedule = scheduler.plan(ScheduleRequest(graph))
                workers = [
                    (e.attrs["seed"], e.attrs["makespan"], e.attrs["best"])
                    for e in tm.events()
                    if e.name == "mcts.worker"
                ]
            starts = sorted((p.task_id, p.start) for p in schedule.placements)
            runs.append((starts, schedule.makespan, workers))
        sequential, processes = runs
        assert len(sequential[2]) == 3
        assert processes == sequential

    def test_multiprocessing_path(self, env_config):
        """The process-pool path produces a valid schedule too."""
        graph = chain_dag([1, 1], demands=[(1, 1)] * 2)
        scheduler = RootParallelMcts(
            MctsConfig(initial_budget=3, min_budget=2),
            env_config,
            workers=2,
            seed=0,
            use_processes=True,
        )
        schedule = scheduler.plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, (10, 10))
        assert schedule.makespan == 2
