"""Hypothesis equivalence: what the batched kernel reads is the
environment's state, and nothing else.

``lane_snapshot`` is the only place a :class:`SchedulingEnv` state
becomes batched-kernel input, and it reads the environment's private
fields to do so.  These properties tie it back to the *public* queries —
over random layered DAGs (optionally relabelled with sparse, shuffled
ids, so dense index != id != topological position), after random legal
prefixes that overflow a narrow visibility window and stop mid-task —
then let the playout kernel finish every lane (the continuation merged
with the prefix must be a valid schedule).
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.verifier import verify_placements
from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.dag.graph import TaskGraph
from repro.dag.task import Task
from repro.env.scheduling_env import SchedulingEnv
from repro.envarr.batch import BatchedPlayouts
from repro.envarr.graphdata import graph_arrays
from repro.envarr.lanes import INF, lane_snapshot
from repro.errors import EnvironmentStateError

CAPS = (10, 10)


def make_graph(seed, num_tasks, relabel=False):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=6,
        max_demand=8,
        runtime_mean=3,
        runtime_std=2,
        demand_mean=4,
        demand_std=2,
    )
    graph = random_layered_dag(workload, seed=seed)
    if not relabel:
        return graph
    # Sparse, shuffled ids: dense index != id != topological position.
    perm = np.random.default_rng(seed).permutation(graph.num_tasks)
    new_id = {tid: int(perm[k]) * 3 + 5 for k, tid in enumerate(graph.task_ids)}
    return TaskGraph(
        [Task(new_id[t.task_id], t.runtime, t.demands) for t in graph],
        [(new_id[up], new_id[down]) for up, down in graph.edges()],
    )


def make_config(until_completion, max_ready=6):
    return EnvConfig(
        cluster=ClusterConfig(capacities=CAPS, horizon=8),
        max_ready=max_ready,
        process_until_completion=until_completion,
    )


def random_prefix_lanes(graph, config, play_seed, max_steps):
    """Clones taken after every step of one random legal prefix."""
    env = SchedulingEnv(graph, config)
    rng = np.random.default_rng(play_seed)
    lanes = [env.clone()]
    for _ in range(max_steps):
        if env.done:
            break
        actions = env.legal_actions()  # PROCESS even when something fits
        env.step(actions[int(rng.integers(len(actions)))])
        lanes.append(env.clone())
    return lanes


def private_state(env):
    return (
        env.signature(),
        env.start_times(),
        dict(env._unmet),
        list(env._ready),
        env.steps_taken,
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 18),
    play_seed=st.integers(0, 1000),
    max_steps=st.integers(0, 40),
    until_completion=st.booleans(),
    relabel=st.booleans(),
)
def test_lanes_match_public_queries_and_continue_to_valid_schedules(
    seed, num_tasks, play_seed, max_steps, until_completion, relabel
):
    graph = make_graph(seed, num_tasks, relabel)
    config = make_config(until_completion, max_ready=3)
    lanes = random_prefix_lanes(graph, config, play_seed, max_steps)
    before = [private_state(env) for env in lanes]
    kernel = BatchedPlayouts(graph, config)
    arrays = kernel.arrays
    index_of = arrays.index_of
    n = graph.num_tasks

    free, finish, now, unmet, seq, num_ready, pending, fincount = (
        kernel.states_from_envs(lanes)
    )
    for b, env in enumerate(lanes):
        assert tuple(free[b]) == env.cluster.available
        assert now[b] == env.now
        assert fincount[b] == env.num_finished
        expected_finish = np.full(n, INF, dtype=np.int64)
        for entry in env.cluster.running_tasks():
            expected_finish[index_of[entry.task_id]] = entry.finish_time
        assert np.array_equal(finish[b], expected_finish)
        finished = set(env.finished_ids())
        for tid in graph.task_ids:
            assert unmet[b, index_of[tid]] == sum(
                parent not in finished for parent in graph.parents(tid)
            )
        # Arrival stamps: queue position for ready tasks (visible window
        # and backlog alike), the sentinel everywhere else.
        expected_seq = np.full(n, INF, dtype=np.int64)
        for position, tid in enumerate(env.all_ready()):
            expected_seq[index_of[tid]] = position
        assert np.array_equal(seq[b], expected_seq)
        assert num_ready[b] == len(env.all_ready())
        placed = finished | set(env.all_ready()) | set(env.running_ids())
        for tid in graph.task_ids:
            assert pending[b, index_of[tid]] == (tid not in placed)

    limit = 50 * (int(arrays.durations.sum()) + n)
    makespans, starts = kernel.run(
        lanes, np.random.default_rng(play_seed), limit, record_starts=True
    )
    ids = [int(tid) for tid in arrays.ids]
    for b, env in enumerate(lanes):
        merged = env.start_times()
        for index in np.nonzero(starts[b] >= 0)[0]:
            assert ids[index] not in merged, "the kernel restarted a task"
            merged[ids[index]] = int(starts[b, index])
        placements = [
            (tid, start, start + graph.task(tid).runtime)
            for tid, start in merged.items()
        ]
        report = verify_placements(placements, graph, CAPS)
        assert report.ok, report.summary()
        assert int(makespans[b]) == max(finish for _, _, finish in placements)

    assert [private_state(env) for env in lanes] == before


def test_backlog_and_mid_task_clocks_really_occur():
    """The property above is only as strong as its states: with a window
    of 3 and unit-slot processing, overflowing queues and clocks strictly
    inside a running task both show up."""
    graph = make_graph(7, 18, relabel=True)
    config = make_config(until_completion=False, max_ready=3)
    lanes = random_prefix_lanes(graph, config, play_seed=3, max_steps=60)
    assert any(env.backlog_size > 0 for env in lanes)
    state = lane_snapshot(graph_arrays(graph), config, lanes)
    running = state.finish != INF
    assert (running & (state.finish > state.now[:, None] + 1)).any()


def test_snapshot_of_no_lanes_is_empty():
    graph = make_graph(1, 6, relabel=False)
    state = lane_snapshot(graph_arrays(graph), make_config(True), [])
    assert state.free.shape == (0, 2)
    assert state.finish.shape == state.unmet.shape == (0, 6)
    assert state.ready == [] and state.now.shape == (0,)


def test_snapshot_rejects_foreign_graph_and_config():
    graph = make_graph(1, 6, relabel=False)
    config = make_config(True)
    arrays = graph_arrays(graph)
    other_graph = SchedulingEnv(make_graph(2, 6, relabel=False), config)
    other_config = SchedulingEnv(graph, make_config(True, max_ready=4))
    with pytest.raises(EnvironmentStateError, match="graph"):
        lane_snapshot(arrays, config, [other_graph])
    with pytest.raises(EnvironmentStateError, match="EnvConfig"):
        lane_snapshot(arrays, config, [other_config])
