"""Integration test: the full Fig. 3 story, end to end.

Claims reproduced (see DESIGN.md for the reconstruction caveat):

* the true optimum of the 8-task instance is exactly 2T (certified by
  exhaustive branch and bound);
* pure MCTS and Spear both find 2T;
* the dependency-blind packers (Tetris, and SJF via its id tiebreak) land
  at 3T;
* CP and Graphene reach 2T on this reconstruction (the paper's exact
  instance data is unpublished; the Tetris/optimal separation is the
  load-bearing claim).
"""

import pytest

from repro.config import ClusterConfig, EnvConfig, MctsConfig
from repro.core import SpearScheduler
from repro.dag import motivating_example
from repro.dag.examples import MOTIVATING_CAPACITY, MOTIVATING_T
from repro.mcts import MctsScheduler
from repro.metrics import validate_schedule
from repro.schedulers import ScheduleRequest, make_scheduler


@pytest.fixture(scope="module")
def setup():
    graph = motivating_example()
    env_config = EnvConfig(
        cluster=ClusterConfig(capacities=MOTIVATING_CAPACITY, horizon=20),
        process_until_completion=True,
    )
    return graph, env_config


def run(scheduler, graph):
    schedule = scheduler.plan(ScheduleRequest(graph))
    validate_schedule(schedule, graph, MOTIVATING_CAPACITY)
    return schedule.makespan


class TestFig3:
    def test_optimum_is_exactly_2t(self, setup):
        graph, env_config = setup
        assert run(make_scheduler("optimal", env_config), graph) == 2 * MOTIVATING_T

    def test_tetris_needs_3t(self, setup):
        graph, env_config = setup
        assert run(make_scheduler("tetris", env_config), graph) == 3 * MOTIVATING_T

    def test_sjf_needs_3t(self, setup):
        graph, env_config = setup
        assert run(make_scheduler("sjf", env_config), graph) == 3 * MOTIVATING_T

    def test_cp_and_graphene_feasible_and_at_least_2t(self, setup):
        graph, env_config = setup
        for name in ("cp", "graphene"):
            assert run(make_scheduler(name, env_config), graph) >= 2 * MOTIVATING_T

    def test_mcts_finds_the_optimum(self, setup):
        graph, env_config = setup
        mcts = MctsScheduler(
            MctsConfig(initial_budget=300, min_budget=50), env_config, seed=0
        )
        assert run(mcts, graph) == 2 * MOTIVATING_T

    def test_spear_finds_the_optimum(self, setup, tiny_training_setup):
        graph, _ = setup
        network, _, _, _ = tiny_training_setup
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=MOTIVATING_CAPACITY, horizon=20),
            process_until_completion=True,
        )
        spear = SpearScheduler(
            network,
            MctsConfig(initial_budget=200, min_budget=40),
            env_config,
            seed=0,
        )
        assert run(spear, graph) == 2 * MOTIVATING_T

    def test_mcts_robust_across_seeds(self, setup):
        graph, env_config = setup
        for seed in range(3):
            mcts = MctsScheduler(
                MctsConfig(initial_budget=300, min_budget=50),
                env_config,
                seed=seed,
            )
            assert run(mcts, graph) == 2 * MOTIVATING_T
