"""Fused guided playout == ``select`` -> ``step`` loop, over random inputs.

``NetworkPolicyBase.playout`` (the environment applies forced moves and
calls back only for real decisions) must be invisible next to the loop it
replaced, ``while not env.done: env.step(policy.select(env))``: from any
reachable state of any DAG both end on the same makespan, start times,
state signature and step count, with the same memo traffic, and leave
the sampling generator in the same state.  States come from random legal
prefixes of random layered DAGs, under unit-slot and event processing,
with and without the work-conserving filter, on 1 to 3 resources and
through windows of 1 to 4 (so that a backlog exists); both featurizers,
both modes, memo on and off.  Each schedule must also pass
:func:`repro.analysis.verifier.verify_placements`, an event sweep that
shares no code with either loop.

The seven list heuristics ride the same loop through
``GreedyPolicy.playout`` and are held to the same standard, on 2- and
3-resource DAGs, with Hypothesis drawing the priority lists (tasks
missing from the order included).
"""

from functools import lru_cache

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.analysis.verifier import verify_placements
from repro.config import ClusterConfig, EnvConfig, GnnConfig, NetworkConfig, WorkloadConfig
from repro.core.pipeline import default_graph_network, default_network
from repro.dag import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv
from repro.rl.agent import PolicyMemo
from repro.schedulers.listsched import FifoPolicy, HeftPolicy, LptPolicy
from repro.schedulers.policies import (
    CriticalPathPolicy,
    PriorityListPolicy,
    SjfPolicy,
)
from repro.schedulers.tetris import TetrisPolicy

MAX_READY = 3
LIMIT = 10_000


def env_config(
    until_completion: bool, num_resources: int = 2, max_ready: int = MAX_READY
) -> EnvConfig:
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10,) * num_resources, horizon=6),
        max_ready=max_ready,
        process_until_completion=until_completion,
    )


@lru_cache(maxsize=None)
def network(model, num_resources, max_ready):
    """A seeded random network for the cluster shape and window."""
    config = env_config(True, num_resources, max_ready)
    if model == "mlp":
        return default_network(config, NetworkConfig(hidden_sizes=(16, 8)), seed=7)
    return default_graph_network(
        config,
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=4),
        seed=7,
    )


def make_graph(seed, num_tasks, num_resources=2):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=4,
        max_demand=6,
        runtime_mean=2,
        runtime_std=1,
        demand_mean=3,
        demand_std=2,
    )
    return random_layered_dag(workload, seed=seed, num_resources=num_resources)


def play(policy, env, fused: bool):
    """One episode to the end; everything it determines."""
    if fused:
        makespan = policy.playout(env, LIMIT)
    else:
        while not env.done:
            env.step(policy.select(env))
        makespan = env.makespan
    graph = env.graph
    report = verify_placements(
        [
            (tid, start, start + graph.task(tid).runtime)
            for tid, start in env.start_times().items()
        ],
        graph,
        env.config.cluster.capacities,
    )
    assert report.ok, report.summary()
    memo = policy.memo
    return {
        "makespan": makespan,
        "starts": env.start_times(),
        "signature": env.signature(),
        "steps": env.steps_taken,
        "memo": None
        if memo is None
        else (memo.evaluations, memo.hits, list(memo.rows)),
        "rng": policy._rng.bit_generator.state,
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_tasks=st.integers(1, 14),
    num_resources=st.integers(1, 3),
    max_ready=st.integers(1, 4),
    play_seed=st.integers(0, 10_000),
    prefixes=st.lists(st.integers(0, 30), min_size=1, max_size=3),
    until_completion=st.booleans(),
    work_conserving=st.booleans(),
    model=st.sampled_from(["mlp", "gnn"]),
    mode=st.sampled_from(["sample", "greedy"]),
    memoized=st.booleans(),
)
def test_fused_playout_equals_select_step_loop(
    seed, num_tasks, num_resources, max_ready, play_seed, prefixes,
    until_completion, work_conserving, model, mode, memoized,
):
    graph = make_graph(seed, num_tasks, num_resources)
    config = env_config(until_completion, num_resources, max_ready)
    outcomes = {}
    for fused in (True, False):
        # One policy (and one memo) across the episodes, as in a search.
        policy = network(model, num_resources, max_ready).make_policy(
            mode=mode, seed=play_seed, work_conserving=work_conserving
        )
        if memoized:
            policy.memo = PolicyMemo()
        prefix_rng = np.random.default_rng(play_seed)
        outcomes[fused] = []
        for prefix in prefixes:
            env = SchedulingEnv(graph, config)
            for _ in range(prefix):
                if env.done:
                    break
                actions = env.legal_actions()
                env.step(actions[int(prefix_rng.integers(len(actions)))])
            outcomes[fused].append(play(policy, env, fused))
            assert env.done
    assert outcomes[True] == outcomes[False]


HEURISTICS = {
    "tetris": TetrisPolicy,
    "sjf": SjfPolicy,
    "cp": CriticalPathPolicy,
    "heft": HeftPolicy,
    "lpt": LptPolicy,
    "fifo": FifoPolicy,
}


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_tasks=st.integers(1, 14),
    num_resources=st.sampled_from([2, 3]),
    play_seed=st.integers(0, 10_000),
    prefix=st.integers(0, 30),
    until_completion=st.booleans(),
    name=st.sampled_from(sorted(HEURISTICS) + ["priority-list"]),
    # Ids past the graph's and ids left out both occur: a task missing
    # from the order ranks last, by id.
    order=st.lists(st.integers(0, 16), unique=True, max_size=17),
)
def test_heuristic_playout_equals_select_step_loop(
    seed, num_tasks, num_resources, play_seed, prefix, until_completion, name, order
):
    graph = make_graph(seed, num_tasks, num_resources)
    config = env_config(until_completion, num_resources)
    outcomes = []
    for fused in (True, False):
        env = SchedulingEnv(graph, config)
        prefix_rng = np.random.default_rng(play_seed)
        for _ in range(prefix):
            if env.done:
                break
            actions = env.legal_actions()
            env.step(actions[int(prefix_rng.integers(len(actions)))])
        if name == "priority-list":
            policy = PriorityListPolicy(order)
        else:
            policy = HEURISTICS[name]()
        policy.begin_episode(env)
        if fused:
            makespan = policy.playout(env, LIMIT)
        else:
            while not env.done:
                env.step(policy.select(env))
            makespan = env.makespan
        assert env.done
        outcomes.append(
            (makespan, env.start_times(), env.signature(), env.steps_taken)
        )
    assert outcomes[0] == outcomes[1]


def snapshot(env):
    """What a callback of the fused loop may read of the moving state."""
    return env.cluster.now, env.cluster.available, env.steps_taken


def spy_on_callbacks(env):
    """Make ``env.policy_playout`` snapshot the state at every ``forced()``
    and ``decide()`` call, always passing a ``forced`` hook so that every
    move has one; returns the list the snapshots go to."""
    seen = []
    fused = env.policy_playout

    def policy_playout(decide, forced, limit, work_conserving=True):
        def spy_decide(actions):
            seen.append(snapshot(env))
            return decide(actions)

        def spy_forced():
            seen.append(snapshot(env))
            if forced is not None:
                forced()

        return fused(spy_decide, spy_forced, limit, work_conserving)

    env.policy_playout = policy_playout
    return seen


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_tasks=st.integers(1, 14),
    num_resources=st.integers(1, 3),
    play_seed=st.integers(0, 10_000),
    prefix=st.integers(0, 30),
    until_completion=st.booleans(),
    name=st.sampled_from(["tetris", "mlp"]),
)
def test_every_callback_sees_the_state_a_step_loop_is_in(
    seed, num_tasks, num_resources, play_seed, prefix, until_completion, name
):
    """The fused loop keeps the clock and free capacity in locals; at every
    ``forced()`` and ``decide()`` call the environment must still read
    what a twin driven by ``step`` reads before the same move."""
    from repro.rl.trajectories import EpisodeRecorder

    graph = make_graph(seed, num_tasks, num_resources)
    config = env_config(until_completion, num_resources)
    envs, policies = [], []
    for _ in range(2):
        env = SchedulingEnv(graph, config)
        prefix_rng = np.random.default_rng(play_seed)
        for _ in range(prefix):
            if env.done:
                break
            actions = env.legal_actions()
            env.step(actions[int(prefix_rng.integers(len(actions)))])
        if name == "tetris":
            policy = TetrisPolicy()
        else:
            policy = network("mlp", num_resources, MAX_READY).make_policy(
                mode="sample", seed=play_seed
            )
        policy.begin_episode(env)
        envs.append(env)
        policies.append(policy)
    fused_env, twin = envs
    seen = spy_on_callbacks(fused_env)
    recorder = EpisodeRecorder()
    if name == "tetris":
        makespan = policies[0].playout(fused_env, LIMIT)
    else:
        makespan = policies[0].playout(fused_env, LIMIT, recorder=recorder)
    stepped = []
    while not twin.done:
        stepped.append(snapshot(twin))
        twin.step(policies[1].select(twin))
    assert seen == stepped
    if name == "mlp":
        assert recorder.clocks == [now for now, _, _ in stepped]
    assert snapshot(fused_env) == snapshot(twin) and makespan == twin.makespan
