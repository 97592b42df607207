"""Property-based tests for the fused random playout.

``random_playout`` inlines the dynamics of ``step`` and keeps its
candidate set incrementally (a start only shrinks free capacity; only a
process step rescans the window).  Both are admissible only if they are
*invisible*: a seeded playout must reach the schedule a step-by-step loop
over ``expansion_actions`` reaches, and leave the NumPy generator in the
same state, which proves the RNG stream itself is untouched.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.analysis.verifier import verify_placements
from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv

#: Cluster shapes for the fused playout: the two-resource fast path and
#: the general R-dimension fit test, with wide layouts (60 and 53 bits of
#: capacity) that a packed fit test could not hold exactly.
PLAYOUT_CAPACITIES = [
    (10, 10),
    (10,),
    (10, 10, 10),
    (511,) * 6,
    (1023,) * 4 + (255,),
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 30),
    play_seed=st.integers(0, 1000),
    until_completion=st.booleans(),
    capacities=st.sampled_from(PLAYOUT_CAPACITIES),
    max_ready=st.sampled_from([1, 2, 6]),
)
def test_random_playout_matches_generic_loop(
    seed, num_tasks, play_seed, until_completion, capacities, max_ready
):
    """The fused rollout equals a step-by-step loop, RNG stream included,
    and its schedule passes the independent verifier.

    Small windows put ready tasks in the backlog, so starts pull them
    into the window — the one branch of the incremental candidate set a
    wide window never takes.  Comparing ``bit_generator.state`` proves
    ``random_playout`` consumed exactly the same draws — the property that
    keeps MCTS schedules bit-identical.
    """
    low = min(capacities)
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=6,
        max_demand=low,
        runtime_mean=3,
        runtime_std=2,
        demand_mean=low / 2,
        demand_std=low / 4,
    )
    graph = random_layered_dag(workload, seed=seed, num_resources=len(capacities))
    reference = SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=capacities, horizon=8),
            max_ready=max_ready,
            process_until_completion=until_completion,
        ),
    )
    fused = reference.clone()
    rng_ref = np.random.default_rng(play_seed)
    rng_fused = np.random.default_rng(play_seed)

    while not reference.done:
        actions = reference.expansion_actions(work_conserving=True)
        reference.step(actions[int(rng_ref.integers(0, len(actions)))])

    makespan = fused.random_playout(rng_fused, limit=10_000)

    assert makespan == reference.makespan
    assert fused.signature() == reference.signature()
    assert fused.start_times() == reference.start_times()
    assert fused.steps_taken == reference.steps_taken
    assert rng_fused.bit_generator.state == rng_ref.bit_generator.state
    placements = [
        (tid, start, start + graph.task(tid).runtime)
        for tid, start in fused.start_times().items()
    ]
    report = verify_placements(placements, graph, capacities)
    assert report.ok, report.summary()
    assert makespan == max(finish for _, _, finish in placements)
