"""One differential test for the three copies of the dynamics.

The environment's dynamics exist three times, deliberately sharing no
code: :meth:`SchedulingEnv.step`, the fused :meth:`random_playout` and
the callback :meth:`policy_playout`.  Over random layered DAGs with one
to three resources, windows of one to six slots (so backlogs form) and
both process modes, a seeded uniform random policy is played through
all three.  They must produce the same start times, the same makespan
and leave their generators in the same state; and each schedule must
pass :func:`repro.analysis.verifier.verify_placements`, an event sweep
that shares no code with any of them.

A random playout stopped by its step cap must leave the state that as
many steps leave: it keeps the clock and free capacity in locals and
writes them back on the way out.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.verifier import verify_placements
from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv
from repro.errors import EnvironmentStateError

LIMIT = 10_000


def make_root(seed, num_tasks, num_resources, max_ready, until_completion):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=6,
        max_demand=8,
        runtime_mean=3,
        runtime_std=2,
        demand_mean=4,
        demand_std=2,
    )
    graph = random_layered_dag(workload, seed=seed, num_resources=num_resources)
    return SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=(10,) * num_resources, horizon=8),
            max_ready=max_ready,
            process_until_completion=until_completion,
        ),
    )


def random_step(env, rng, work_conserving=True):
    """One step of the unfused reference: a uniform draw among the
    candidates, none for a single one."""
    actions = (
        env.expansion_actions(work_conserving=True)
        if work_conserving
        else env.legal_actions()
    )
    n = len(actions)
    env.step(actions[int(rng.integers(0, n))] if n > 1 else actions[0])


def placements_of(env, graph):
    return [
        (tid, start, start + graph.task(tid).runtime)
        for tid, start in env.start_times().items()
    ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 30),
    num_resources=st.integers(1, 3),
    max_ready=st.integers(1, 6),
    until_completion=st.booleans(),
    work_conserving=st.booleans(),
    play_seed=st.integers(0, 2**16),
)
def test_step_random_playout_and_policy_playout_agree(
    seed,
    num_tasks,
    num_resources,
    max_ready,
    until_completion,
    work_conserving,
    play_seed,
):
    root = make_root(seed, num_tasks, num_resources, max_ready, until_completion)
    graph = root.graph
    capacities = root.config.cluster.capacities

    stepped = root.clone()
    rng_step = np.random.default_rng(play_seed)
    while not stepped.done:
        random_step(stepped, rng_step, work_conserving)

    called = root.clone()
    rng_call = np.random.default_rng(play_seed)

    def decide(actions):
        return actions[int(rng_call.integers(0, len(actions)))]

    makespan = called.policy_playout(decide, None, LIMIT, work_conserving)

    runs = [(stepped, rng_step), (called, rng_call)]
    if work_conserving:  # the random playout is work-conserving only
        fused = root.clone()
        rng_fused = np.random.default_rng(play_seed)
        assert fused.random_playout(rng_fused, LIMIT) == makespan
        runs.append((fused, rng_fused))

    for env, rng in runs:
        assert env.done
        assert env.makespan == makespan
        assert env.start_times() == stepped.start_times()
        assert rng.bit_generator.state == rng_step.bit_generator.state
        report = verify_placements(placements_of(env, graph), graph, capacities)
        assert report.ok, report.summary()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 30),
    num_resources=st.integers(1, 3),
    max_ready=st.integers(1, 6),
    until_completion=st.booleans(),
    play_seed=st.integers(0, 2**16),
    cap=st.integers(0, 60),
)
def test_a_capped_random_playout_leaves_what_as_many_steps_leave(
    seed, num_tasks, num_resources, max_ready, until_completion, play_seed, cap
):
    root = make_root(seed, num_tasks, num_resources, max_ready, until_completion)

    stepped = root.clone()
    rng_step = np.random.default_rng(play_seed)
    while not stepped.done and stepped.steps_taken < cap:
        random_step(stepped, rng_step)

    fused = root.clone()
    rng_fused = np.random.default_rng(play_seed)
    if stepped.done:
        assert fused.random_playout(rng_fused, cap) == stepped.makespan
    else:
        with pytest.raises(EnvironmentStateError, match="step limit"):
            fused.random_playout(rng_fused, cap)

    assert fused.cluster.signature() == stepped.cluster.signature()
    assert fused.signature() == stepped.signature()
    assert fused.start_times() == stepped.start_times()
    assert fused.steps_taken == stepped.steps_taken
    assert fused.legal_actions() == stepped.legal_actions()
    assert rng_fused.bit_generator.state == rng_step.bit_generator.state
