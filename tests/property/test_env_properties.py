"""Property-based tests on the scheduling MDP and the schedulers.

The central invariant: *any* legal play of the environment terminates with
a schedule that passes full feasibility validation and whose makespan is
bounded below by the analytic lower bound and above by the serial
makespan.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.analysis import makespan_lower_bound
from repro.dag.generators import random_layered_dag
from repro.env import PROCESS, SchedulingEnv
from repro.metrics import validate_schedule
from repro.schedulers import (
    CriticalPathPolicy,
    RandomPolicy,
    SjfPolicy,
    TetrisPolicy,
    run_policy,
)

CAPS = (10, 10)


def make_graph(seed, num_tasks):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=6,
        max_demand=8,
        runtime_mean=3,
        runtime_std=2,
        demand_mean=4,
        demand_std=2,
    )
    return random_layered_dag(workload, seed=seed)


def make_env(graph, until_completion):
    return SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=CAPS, horizon=8),
            max_ready=6,
            process_until_completion=until_completion,
        ),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 16),
    play_seed=st.integers(0, 1000),
    until_completion=st.booleans(),
)
def test_random_legal_play_terminates_feasibly(
    seed, num_tasks, play_seed, until_completion
):
    graph = make_graph(seed, num_tasks)
    env = make_env(graph, until_completion)
    rng = np.random.default_rng(play_seed)
    rewards = 0
    for _ in range(100_000):
        if env.done:
            break
        actions = env.legal_actions()
        assert actions, "a live environment must always offer an action"
        rewards += env.step(actions[int(rng.integers(len(actions)))]).reward

    assert env.done
    assert rewards == -env.makespan

    schedule = env.to_schedule("random-play")
    validate_schedule(schedule, graph, CAPS)
    assert schedule.makespan >= makespan_lower_bound(graph, CAPS)
    assert schedule.makespan <= sum(t.runtime for t in graph) * 2 + 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_tasks=st.integers(2, 14))
def test_all_baseline_policies_produce_feasible_schedules(seed, num_tasks):
    graph = make_graph(seed, num_tasks)
    serial = sum(task.runtime for task in graph)
    bound = makespan_lower_bound(graph, CAPS)
    for policy in (
        SjfPolicy(),
        CriticalPathPolicy(),
        TetrisPolicy(),
        RandomPolicy(seed=0),
    ):
        env = make_env(graph, until_completion=True)
        schedule = run_policy(env, policy)
        validate_schedule(schedule, graph, CAPS)
        assert bound <= schedule.makespan <= serial


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_tasks=st.integers(2, 12))
def test_event_granularity_does_not_change_policy_outcomes(seed, num_tasks):
    """Deterministic work-conserving policies must reach identical
    makespans whether PROCESS advances one slot or jumps to the next
    completion — the two granularities are observationally equivalent."""
    graph = make_graph(seed, num_tasks)
    for policy_factory in (SjfPolicy, CriticalPathPolicy, TetrisPolicy):
        slotwise = run_policy(
            make_env(graph, until_completion=False), policy_factory()
        )
        eventwise = run_policy(
            make_env(graph, until_completion=True), policy_factory()
        )
        assert slotwise.makespan == eventwise.makespan
        assert slotwise.as_dict() == eventwise.as_dict()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_tasks=st.integers(2, 12))
def test_clone_divergence_never_leaks(seed, num_tasks):
    """Mutating a clone never changes the original (deep-enough copies)."""
    graph = make_graph(seed, num_tasks)
    env = make_env(graph, until_completion=True)
    env.step(env.legal_actions()[0])
    snapshot = env.signature()
    clone = env.clone()
    rng = np.random.default_rng(0)
    while not clone.done:
        actions = clone.legal_actions()
        clone.step(actions[int(rng.integers(len(actions)))])
    assert env.signature() == snapshot


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 20),
    capacities=st.tuples(st.integers(1, 9), st.integers(1, 9)),
)
def test_an_oversized_task_is_refused_as_by_the_per_task_check(
    seed, num_tasks, capacities
):
    """The environment checks capacities against the graph's peak demand;
    when that fails it names the same task, with the same message, as
    checking every task in topological order does."""
    from repro.cluster.resources import validate_demands
    from repro.errors import CapacityError

    graph = make_graph(seed, num_tasks)
    expected = None
    try:
        for task in graph:
            validate_demands(task.demands, capacities, label=task.label())
    except CapacityError as exc:
        expected = str(exc)
    config = EnvConfig(cluster=ClusterConfig(capacities=capacities, horizon=8))
    try:
        SchedulingEnv(graph, config)
    except CapacityError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
