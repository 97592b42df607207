"""Property-based tests for the undo-log state restore and fused rollout.

The optimization work (snapshot-based ``apply``/``undo``, the fused
``random_playout``, rollout lanes cloned from the one walked
environment instead of held by tree nodes) is only admissible if it is
*invisible*: every path through the environment must produce
bit-identical states and schedules.  These tests drive random action
sequences through the different code paths and require exact equality —
of ``signature()``, of legal-action lists, and (for the fused rollout)
of the NumPy generator state, which proves the RNG stream itself is
untouched.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.analysis.verifier import verify_placements
from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv

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


def make_env(graph, until_completion=True, capacities=CAPS):
    return SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=capacities, horizon=8),
            max_ready=6,
            process_until_completion=until_completion,
        ),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 14),
    play_seed=st.integers(0, 1000),
    until_completion=st.booleans(),
)
def test_apply_undo_restores_every_prefix(
    seed, num_tasks, play_seed, until_completion
):
    """Unwinding an apply stack restores the exact state at every depth."""
    env = make_env(make_graph(seed, num_tasks), until_completion)
    rng = np.random.default_rng(play_seed)

    stack = []
    snapshots = [(env.signature(), list(env.legal_actions()))]
    while not env.done and len(stack) < 60:
        actions = env.expansion_actions(work_conserving=True)
        action = actions[int(rng.integers(0, len(actions)))]
        stack.append(env.apply(action))
        snapshots.append((env.signature(), list(env.legal_actions())))

    while stack:
        env.undo(stack.pop())
        expected_sig, expected_actions = snapshots[len(stack)]
        assert env.signature() == expected_sig
        assert list(env.legal_actions()) == expected_actions
    assert env.steps_taken == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 14),
    play_seed=st.integers(0, 1000),
    until_completion=st.booleans(),
)
def test_apply_matches_step_exactly(
    seed, num_tasks, play_seed, until_completion
):
    """``apply`` and ``step`` drive two envs through identical trajectories."""
    graph = make_graph(seed, num_tasks)
    via_step = make_env(graph, until_completion)
    via_apply = make_env(graph, until_completion)
    rng = np.random.default_rng(play_seed)

    while not via_step.done:
        actions = via_step.expansion_actions(work_conserving=True)
        action = actions[int(rng.integers(0, len(actions)))]
        result = via_step.step(action)
        record = via_apply.apply(action)
        assert record.result == result
        assert via_apply.signature() == via_step.signature()

    assert via_apply.done
    assert via_apply.start_times() == via_step.start_times()
    via_apply.verify_terminal_state()


#: Cluster shapes for the fused playout: the two-resource fast path and
#: the general R-dimension fit test, with wide layouts (60 and 53 bits of
#: capacity) that a packed fit test could not hold exactly.
PLAYOUT_CAPACITIES = [
    CAPS,
    (10,),
    (10, 10, 10),
    (511,) * 6,
    (1023,) * 4 + (255,),
]


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 14),
    play_seed=st.integers(0, 1000),
    until_completion=st.booleans(),
    capacities=st.sampled_from(PLAYOUT_CAPACITIES),
)
def test_random_playout_matches_generic_loop(
    seed, num_tasks, play_seed, until_completion, capacities
):
    """The fused rollout equals a step-by-step loop, RNG stream included,
    and its schedule passes the independent verifier.

    Comparing ``bit_generator.state`` proves ``random_playout`` consumed
    exactly the same draws — the property that keeps MCTS schedules
    bit-identical to the pre-optimization implementation.
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
    reference = make_env(graph, until_completion, capacities)
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
    assert rng_fused.bit_generator.state == rng_ref.bit_generator.state
    placements = [
        (tid, start, start + graph.task(tid).runtime)
        for tid, start in fused.start_times().items()
    ]
    report = verify_placements(placements, graph, capacities)
    assert report.ok, report.summary()
    assert makespan == max(finish for _, _, finish in placements)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tasks=st.integers(1, 14),
    play_seed=st.integers(0, 1000),
    until_completion=st.booleans(),
)
def test_apply_then_clone_equals_clone_then_step(
    seed, num_tasks, play_seed, until_completion
):
    """A rollout lane cloned from the walked environment after ``apply``
    is the lane a node-held clone reached with ``step``.

    The search used to expand a node as ``clone()`` then ``step(a)`` on
    the copy; it now does ``apply(a)``, ``clone()``, ``undo`` on its one
    environment.  Over random legal prefixes the two lanes agree in
    everything a rollout reads, and a seeded random playout from both
    returns the same makespan and leaves the same generator state.
    """
    env = make_env(make_graph(seed, num_tasks), until_completion)
    rng = np.random.default_rng(play_seed)

    while not env.done:
        actions = env.expansion_actions(work_conserving=True)
        action = actions[int(rng.integers(0, len(actions)))]
        stepped = env.clone()
        stepped.step(action)
        record = env.apply(action)
        walked = env.clone()

        assert walked.signature() == stepped.signature()
        assert list(walked.legal_actions()) == list(stepped.legal_actions())
        assert walked.steps_taken == stepped.steps_taken
        if not walked.done:
            rng_walked = np.random.default_rng(play_seed)
            rng_stepped = np.random.default_rng(play_seed)
            assert walked.random_playout(
                rng_walked, limit=10_000
            ) == stepped.random_playout(rng_stepped, limit=10_000)
            assert rng_walked.bit_generator.state == rng_stepped.bit_generator.state

        # A search reaches a node through committed moves (``step``) and
        # descent edges (``apply``): mix both into the prefix.
        if rng.integers(0, 2):
            env.undo(record)
            env.step(action)
