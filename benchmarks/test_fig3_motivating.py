"""Fig. 3 benchmark: the motivating example.

Regenerates the figure's makespan table: the searched schedule reaches the
certified optimum of 2T while the dependency-blind packers need 3T.
"""

from repro.config import ClusterConfig, EnvConfig, MctsConfig
from repro.dag import motivating_example
from repro.dag.examples import MOTIVATING_CAPACITY, MOTIVATING_T
from repro.mcts import MctsScheduler
from repro.metrics import validate_schedule
from repro.schedulers import ScheduleRequest, make_scheduler


def _run_all():
    graph = motivating_example()
    env_config = EnvConfig(
        cluster=ClusterConfig(capacities=MOTIVATING_CAPACITY, horizon=20),
        process_until_completion=True,
    )
    results = {}
    for name in ("optimal", "tetris", "sjf", "cp", "graphene"):
        schedule = make_scheduler(name, env_config).plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, MOTIVATING_CAPACITY)
        results[name] = schedule.makespan
    mcts = MctsScheduler(
        MctsConfig(initial_budget=300, min_budget=50), env_config, seed=0
    )
    results["mcts"] = mcts.plan(ScheduleRequest(graph)).makespan
    return results


def test_fig3_motivating_example(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    benchmark.extra_info.update(results)
    print("\nFig 3 makespans:", results)

    assert results["optimal"] == 2 * MOTIVATING_T
    assert results["mcts"] == 2 * MOTIVATING_T
    assert results["tetris"] == 3 * MOTIVATING_T
    assert results["sjf"] == 3 * MOTIVATING_T
    # CP/Graphene reach 2T on this reconstruction (documented deviation).
    assert results["cp"] >= 2 * MOTIVATING_T
    assert results["graphene"] >= 2 * MOTIVATING_T
