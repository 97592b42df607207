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
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.analysis.verifier import verify_placements
from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv

LIMIT = 10_000


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
    capacities = (10,) * num_resources
    root = SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=capacities, horizon=8),
            max_ready=max_ready,
            process_until_completion=until_completion,
        ),
    )

    stepped = root.clone()
    rng_step = np.random.default_rng(play_seed)
    while not stepped.done:
        actions = (
            stepped.expansion_actions(work_conserving=True)
            if work_conserving
            else stepped.legal_actions()
        )
        n = len(actions)
        stepped.step(actions[int(rng_step.integers(0, n))] if n > 1 else actions[0])

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
