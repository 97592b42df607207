"""Fused guided playout == ``select`` -> ``step`` loop, over random inputs.

``NetworkPolicyBase.playout`` (the environment applies forced moves and
calls back only for real decisions) must be invisible next to the loop it
replaced, ``while not env.done: env.step(policy.select(env))``: from any
reachable state of any DAG both end on the same makespan, start times,
state signature and step count, with the same memo traffic, and leave
the sampling generator in the same state.  States come from random legal
prefixes of random layered DAGs, under unit-slot and event processing,
with and without the work-conserving filter, through a window of 3 so
that a backlog exists; both featurizers, both modes, memo on and off.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.config import ClusterConfig, EnvConfig, GnnConfig, NetworkConfig, WorkloadConfig
from repro.core.pipeline import default_graph_network, default_network
from repro.dag import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv
from repro.rl.agent import PolicyMemo

MAX_READY = 3
LIMIT = 10_000


def env_config(until_completion: bool) -> EnvConfig:
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=6),
        max_ready=MAX_READY,
        process_until_completion=until_completion,
    )


NETWORKS = {
    "mlp": default_network(
        env_config(True),
        NetworkConfig(hidden_sizes=(16, 8), max_ready=MAX_READY),
        seed=7,
    ),
    "gnn": default_graph_network(
        env_config(True),
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=4),
        seed=7,
    ),
}


def make_graph(seed, num_tasks):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=4,
        max_demand=6,
        runtime_mean=2,
        runtime_std=1,
        demand_mean=3,
        demand_std=2,
    )
    return random_layered_dag(workload, seed=seed)


def play(policy, env, fused: bool):
    """One episode to the end; everything it determines."""
    if fused:
        makespan = policy.playout(env, LIMIT)
    else:
        while not env.done:
            env.step(policy.select(env))
        makespan = env.makespan
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
    play_seed=st.integers(0, 10_000),
    prefixes=st.lists(st.integers(0, 30), min_size=1, max_size=3),
    until_completion=st.booleans(),
    work_conserving=st.booleans(),
    model=st.sampled_from(["mlp", "gnn"]),
    mode=st.sampled_from(["sample", "greedy"]),
    memoized=st.booleans(),
)
def test_fused_playout_equals_select_step_loop(
    seed, num_tasks, play_seed, prefixes, until_completion, work_conserving,
    model, mode, memoized,
):
    graph = make_graph(seed, num_tasks)
    config = env_config(until_completion)
    outcomes = {}
    for fused in (True, False):
        # One policy (and one memo) across the episodes, as in a search.
        policy = NETWORKS[model].make_policy(
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
