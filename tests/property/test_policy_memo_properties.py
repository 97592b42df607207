"""The policy memo's key is every input of observation and mask.

A memo hit hands back the distribution of an *earlier* state, so two
states that share ``state_key`` and candidate-action tuple must share
observation and mask byte for byte — for both featurizers.  The converse
is not required: distinct keys may render the same observation (that
only costs a hit).  States come from random legal prefixes of random
layered DAGs (ids relabelled sparse and shuffled), under unit-slot and
event processing, with a window of 3 so the backlog overflows.
"""

from collections import defaultdict

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag import random_layered_dag
from repro.dag.graph import TaskGraph
from repro.dag.task import Task
from repro.env.observation import ObservationBuilder
from repro.env.scheduling_env import SchedulingEnv
from repro.rl.agent import candidate_actions, mask_from_actions
from repro.rl.gnn import GraphObservationBuilder

MAX_READY = 3


def make_graph(seed, num_tasks, relabel):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=4,
        max_demand=6,
        runtime_mean=2,
        runtime_std=1,
        demand_mean=3,
        demand_std=2,
    )
    graph = random_layered_dag(workload, seed=seed)
    if not relabel:
        return graph
    perm = np.random.default_rng(seed).permutation(graph.num_tasks)
    new_id = {tid: int(perm[k]) * 3 + 5 for k, tid in enumerate(graph.task_ids)}
    return TaskGraph(
        [Task(new_id[t.task_id], t.runtime, t.demands) for t in graph],
        [(new_id[up], new_id[down]) for up, down in graph.edges()],
    )


def random_states(graph, config, play_seed, episodes):
    """Every state of ``episodes`` random legal episodes (clones)."""
    rng = np.random.default_rng(play_seed)
    states = []
    for _ in range(episodes):
        env = SchedulingEnv(graph, config)
        while not env.done:
            states.append(env.clone())
            actions = env.legal_actions()
            env.step(actions[int(rng.integers(len(actions)))])
    return states


def rendering(builder, env, work_conserving):
    """(key, observation bytes, mask bytes) as the policy step sees them."""
    actions = candidate_actions(env, work_conserving)
    key = (builder.state_key(env), tuple(actions))
    observation = builder.build(env)
    if isinstance(builder, ObservationBuilder):
        width = env.config.max_ready + 1
        rendered = observation.tobytes()
    else:
        width = len(env.visible_ready()) + 1
        rendered = (
            observation.node_state.tobytes(),
            observation.globals_vec.tobytes(),
            observation.ready,
        )
    return key, rendered, mask_from_actions(actions, width).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_tasks=st.integers(4, 14),
    play_seed=st.integers(0, 10_000),
    until_completion=st.booleans(),
    relabel=st.booleans(),
    work_conserving=st.booleans(),
    model=st.sampled_from(["window", "graph"]),
)
def test_equal_keys_mean_equal_observation_and_mask(
    seed, num_tasks, play_seed, until_completion, relabel, work_conserving, model
):
    graph = make_graph(seed, num_tasks, relabel)
    config = EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=6),
        max_ready=MAX_READY,
        process_until_completion=until_completion,
    )
    builder = (
        ObservationBuilder(graph, config)
        if model == "window"
        else GraphObservationBuilder(graph, config)
    )
    by_key = defaultdict(set)
    for env in random_states(graph, config, play_seed, episodes=4):
        key, observation, mask = rendering(builder, env, work_conserving)
        hash(key)  # the memo is a dict
        by_key[key].add((observation, mask))
    assert all(len(renderings) == 1 for renderings in by_key.values())


def test_window_key_ignores_what_the_observation_cannot_see():
    """Which of two equal-shaped tasks ran first is not an input of the
    window observation (no task ids in the image, a finished *count*), so
    the two orders share a key — the repeats the memo lives on — while
    the graph featurizer, which marks nodes, tells them apart."""
    graph = TaskGraph([Task(i, 2, (3, 3)) for i in range(4)], [])
    config = EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=6),
        max_ready=4,
        process_until_completion=True,
    )

    def play(first_slot):
        env = SchedulingEnv(graph, config)
        env.step(first_slot)  # task 0 or task 1 runs alone...
        env.step(-1)  # ...and finishes at t=2
        env.step(0)  # the other one runs; tasks 2 and 3 wait
        return env

    zero_first, one_first = play(0), play(1)
    assert zero_first.signature() != one_first.signature()
    window = ObservationBuilder(graph, config)
    assert window.state_key(zero_first) == window.state_key(one_first)
    assert (
        window.build(zero_first).tobytes() == window.build(one_first).tobytes()
    )
    nodes = GraphObservationBuilder(graph, config)
    assert nodes.state_key(zero_first) != nodes.state_key(one_first)
    assert not np.array_equal(
        nodes.build(zero_first).node_state, nodes.build(one_first).node_state
    )
