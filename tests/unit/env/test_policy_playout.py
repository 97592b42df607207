"""The fused guided playout against the ``select`` -> ``step`` loop.

``SchedulingEnv.policy_playout`` applies single-candidate moves itself
and calls the policy only where there is a choice to make;
``NetworkPolicyBase.playout`` is the policy's half of it and
``NetworkRollout.rollout`` its only caller.  The reference everywhere
below is the loop that call replaced — ``while not env.done:
env.step(policy.select(env))`` — over the unchanged ``select`` and
``step``: same actions, same counters, same memo traffic and the same
generator state, from the first state of an episode or the middle of one.
"""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from repro import ScheduleRequest, make_scheduler
from repro.config import ClusterConfig, EnvConfig, GnnConfig, NetworkConfig, WorkloadConfig
from repro.core.guidance import NetworkRollout
from repro.core.pipeline import default_graph_network, default_network
from repro.dag.generators import chain_dag, independent_tasks_dag, random_layered_dag
from repro.env.actions import PROCESS
from repro.env.scheduling_env import SchedulingEnv
from repro.errors import CapacityError, ConfigError, EnvironmentStateError
from repro.rl.agent import NetworkPolicyBase, PolicyMemo, candidate_actions

MAX_READY = 3  # narrower than the DAGs' layers, so a backlog exists
WORKLOAD = WorkloadConfig(
    num_tasks=14, max_runtime=5, max_demand=6,
    runtime_mean=3, runtime_std=1, demand_mean=3, demand_std=2,
)
GRAPH_SEEDS = (3, 17, 42)
LIMIT = 10_000


def env_config(until_completion=True, capacities=(10, 10), **overrides) -> EnvConfig:
    return EnvConfig(
        cluster=ClusterConfig(capacities=capacities, horizon=8),
        max_ready=MAX_READY,
        process_until_completion=until_completion,
        **overrides,
    )


def make_network(model: str):
    if model == "mlp":
        return default_network(
            env_config(),
            NetworkConfig(hidden_sizes=(16, 8), max_ready=MAX_READY),
            seed=7,
        )
    return default_graph_network(
        env_config(),
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=4),
        seed=7,
    )


def reference_playout(policy, env, limit=LIMIT) -> int:
    """``NetworkRollout.rollout`` as it was before the loop was fused."""
    steps = 0
    while not env.done:
        if steps >= limit:
            raise EnvironmentStateError("network rollout livelocked")
        env.step(policy.select(env))
        steps += 1
    return env.makespan


def random_prefix(env, rng, moves: int) -> None:
    """Advance ``env`` by up to ``moves`` uniformly random legal actions."""
    for _ in range(moves):
        if env.done:
            return
        actions = env.legal_actions()
        env.step(actions[int(rng.integers(len(actions)))])


# ---------------------------------------------------------------------- #
# the environment's half: what the callback sees and may return
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("capacities", [(10, 10), (10, 10, 10)], ids=["2d", "3d"])
@pytest.mark.parametrize("until_completion", [True, False], ids=["event", "slot"])
@pytest.mark.parametrize("work_conserving", [True, False], ids=["wc", "raw"])
def test_callbacks_see_the_state_a_stepped_twin_is_in(
    work_conserving, until_completion, capacities
):
    """A twin environment replays the episode with ``step``; every time
    ``decide`` runs the two agree in every public query, and ``forced``
    has run once for each single-candidate move the twin made."""
    config = env_config(until_completion, capacities)
    decided = forced_moves = 0
    for graph_seed in GRAPH_SEEDS:
        graph = random_layered_dag(
            WORKLOAD, seed=graph_seed, num_resources=len(capacities)
        )
        env = SchedulingEnv(graph, config)
        twin = SchedulingEnv(graph, config)
        chooser = np.random.default_rng(graph_seed)
        random_prefix(env, np.random.default_rng(graph_seed), 5)
        random_prefix(twin, np.random.default_rng(graph_seed), 5)
        calls = {"forced": 0, "twin_forced": 0}

        def catch_up():
            """Step the twin through its single-candidate states."""
            while not twin.done:
                actions = candidate_actions(twin, work_conserving)
                if len(actions) > 1:
                    return
                twin.step(actions[0])
                calls["twin_forced"] += 1

        def forced():
            calls["forced"] += 1

        def decide(actions):
            nonlocal decided
            decided += 1
            catch_up()
            assert calls["forced"] == calls["twin_forced"]
            assert actions == candidate_actions(env, work_conserving)
            assert actions == candidate_actions(twin, work_conserving)
            assert env.legal_actions() == twin.legal_actions()
            assert env.action_mask() == twin.action_mask()
            assert env.steps_taken == twin.steps_taken
            assert env.signature() == twin.signature()
            assert env.window_signature() == twin.window_signature()
            assert env.now == twin.now and not env.done
            action = actions[int(chooser.integers(len(actions)))]
            twin.step(action)
            return action

        makespan = env.policy_playout(decide, forced, LIMIT, work_conserving)
        catch_up()
        assert twin.done and makespan == twin.makespan == env.makespan
        assert calls["forced"] == calls["twin_forced"]
        assert env.steps_taken == twin.steps_taken
        assert env.start_times() == twin.start_times()
        assert env.signature() == twin.signature()
        assert env.legal_actions() == twin.legal_actions() == []
        forced_moves += calls["forced"]
    assert decided > 0 and forced_moves > 0


def two_big_two_small() -> SchedulingEnv:
    """Four independent tasks on a 10 x 10 cluster: a (6, 6) task, two
    (3, 3) tasks — all three visible — and a second (6, 6) in the backlog."""
    graph = independent_tasks_dag(
        [2, 2, 2, 2], demands=[(6, 6), (3, 3), (3, 3), (6, 6)]
    )
    return SchedulingEnv(graph, env_config())


@pytest.mark.parametrize(
    "script, error",
    [
        pytest.param([MAX_READY], EnvironmentStateError, id="index-past-window"),
        pytest.param([-2], EnvironmentStateError, id="negative-index"),
        pytest.param([PROCESS], EnvironmentStateError, id="process-while-idle"),
        # After the first (6, 6) task the window holds two (3, 3) tasks
        # that fit and the second (6, 6), which does not.
        pytest.param([0, 2], CapacityError, id="task-does-not-fit"),
    ],
)
def test_an_illegal_decision_raises_what_step_raises(script, error):
    env = two_big_two_small()
    moves = iter(script)
    states = []  # the state each scripted move was returned in

    def decide(actions):
        states.append(env.clone())
        return next(moves)

    with pytest.raises(error) as fused:
        env.policy_playout(decide, None, LIMIT, work_conserving=True)
    with pytest.raises(error, match=re.escape(str(fused.value))):
        states[-1].step(script[-1])
    # The counters were published on the way out.
    assert env.steps_taken == len(script) - 1
    assert env.legal_actions() == states[-1].legal_actions()


def test_process_with_tasks_that_fit_is_accepted_like_step_accepts_it():
    """Work conservation filters the *candidates*; ``step`` itself takes
    PROCESS whenever something runs, and so does the fused loop."""
    env = two_big_two_small()
    twin = two_big_two_small()
    script = [0, PROCESS]
    moves = iter(script)
    makespan = env.policy_playout(
        lambda actions: next(moves, actions[0]), None, LIMIT
    )
    for action in script:
        twin.step(action)
    while not twin.done:
        twin.step(candidate_actions(twin, True)[0])
    assert makespan == twin.makespan
    assert env.start_times() == twin.start_times()


@pytest.mark.parametrize("until_completion", [True, False], ids=["event", "slot"])
def test_limit_counts_forced_and_decided_moves(until_completion):
    config = env_config(until_completion)
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    first = lambda actions: actions[0]
    env = SchedulingEnv(graph, config)
    env.policy_playout(first, None, LIMIT)
    needed = env.steps_taken

    exact = SchedulingEnv(graph, config)
    assert exact.policy_playout(first, None, needed) == env.makespan

    short = SchedulingEnv(graph, config)
    with pytest.raises(EnvironmentStateError, match="network rollout livelocked"):
        short.policy_playout(first, None, needed - 1)
    assert short.steps_taken == needed - 1 and not short.done
    stepped = SchedulingEnv(graph, config)
    while stepped.steps_taken < needed - 1:
        stepped.step(candidate_actions(stepped, True)[0])
    assert short.signature() == stepped.signature()
    assert short.legal_actions() == stepped.legal_actions()


def test_finished_episode_returns_its_makespan_without_callbacks():
    env = SchedulingEnv(chain_dag([2]), env_config())
    env.step(0)
    env.step(PROCESS)

    def unreachable(*args):
        raise AssertionError("a finished episode has no decisions")

    assert env.policy_playout(unreachable, unreachable, limit=0) == env.makespan
    assert env.steps_taken == 2


def test_terminal_state_is_verified_when_configured(monkeypatch):
    verified = []
    inner = SchedulingEnv.verify_terminal_state

    def counting(self):
        verified.append(self.done)
        inner(self)

    monkeypatch.setattr(SchedulingEnv, "verify_terminal_state", counting)
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[1])
    SchedulingEnv(graph, env_config()).policy_playout(
        lambda actions: actions[-1], None, LIMIT
    )
    assert verified == []
    SchedulingEnv(graph, env_config(verify_terminal=True)).policy_playout(
        lambda actions: actions[-1], None, LIMIT
    )
    assert verified == [True]


# ---------------------------------------------------------------------- #
# the policy's half: NetworkPolicyBase.playout == select/step, per episode
# ---------------------------------------------------------------------- #


def final_state(env, policy, makespan):
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


@pytest.mark.parametrize("memoized", [True, False], ids=["memo", "no-memo"])
@pytest.mark.parametrize("until_completion", [True, False], ids=["event", "slot"])
@pytest.mark.parametrize("work_conserving", [True, False], ids=["wc", "raw"])
@pytest.mark.parametrize("mode", ["sample", "greedy"])
@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_playout_is_the_select_step_loop(
    model, mode, work_conserving, until_completion, memoized
):
    network = make_network(model)
    config = env_config(until_completion)
    forced = unforced = 0
    for graph_seed in GRAPH_SEEDS:
        graph = random_layered_dag(WORKLOAD, seed=graph_seed)
        outcomes = []
        for fused in (True, False):
            policy = network.make_policy(
                mode=mode, seed=graph_seed, work_conserving=work_conserving
            )
            if memoized:
                policy.memo = PolicyMemo()
            # Three episodes per policy — two from the root, so the second
            # meets memoized states, and one from the middle of an episode.
            for prefix in (0, 0, 6):
                env = SchedulingEnv(graph, config)
                random_prefix(env, np.random.default_rng(prefix), prefix)
                if fused:
                    makespan = policy.playout(env, LIMIT)
                else:
                    before = env.steps_taken
                    probe = env.clone()
                    while not probe.done:
                        actions = candidate_actions(probe, work_conserving)
                        forced += len(actions) == 1
                        unforced += len(actions) > 1
                        probe.step(actions[0])
                    makespan = reference_playout(policy, env)
                    assert env.steps_taken > before
                outcomes.append(final_state(env, policy, makespan))
        assert outcomes[:3] == outcomes[3:]
        if memoized:
            evaluations, hits, rows = outcomes[2]["memo"]
            assert evaluations > hits > 0 and len(rows) == evaluations - hits
    assert forced > 0 and unforced > 0


def test_greedy_playout_never_draws():
    policy = make_network("mlp").make_policy(mode="greedy", seed=5)
    before = policy._rng.bit_generator.state
    env = SchedulingEnv(random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[1]), env_config())
    policy.playout(env, LIMIT)
    assert env.done and policy._rng.bit_generator.state == before


@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_environment_is_checked_once_per_episode(model):
    """The builder's graph and window are compared once up front and,
    as ever, when a memo miss featurizes the state; ``select`` compares
    them on every step."""
    policy = make_network(model).make_policy(mode="greedy", seed=0)
    policy.memo = PolicyMemo()
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    checks = []
    ensure = policy._ensure_builder
    policy._ensure_builder = lambda env: checks.append(env) or ensure(env)
    env = SchedulingEnv(graph, env_config())
    policy.playout(env, LIMIT)
    misses = len(policy.memo.rows)
    assert misses > 1 and len(checks) == 1 + misses
    # The same greedy episode again: every decision is a memo hit.
    policy.playout(SchedulingEnv(graph, env_config()), LIMIT)
    assert len(checks) == 2 + misses
    reference_playout(policy, SchedulingEnv(graph, env_config()))
    assert len(checks) == 2 + misses + env.steps_taken


def test_mismatched_environment_fails_before_the_first_move():
    wide = EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=8),
        max_ready=MAX_READY + 1,
        process_until_completion=True,
    )
    env = SchedulingEnv(chain_dag([2, 3], demands=[(2, 1)] * 2), wide)
    policy = make_network("mlp").make_policy(mode="sample", seed=0)
    before = policy._rng.bit_generator.state
    with pytest.raises(ConfigError, match="max_ready"):
        policy.playout(env, LIMIT)
    assert env.steps_taken == 0 and policy._rng.bit_generator.state == before


@pytest.mark.parametrize("memoized", [True, False], ids=["memo", "no-memo"])
def test_a_masked_choice_is_refused(memoized, monkeypatch):
    """The distribution is the network's; the check that its argmax is a
    candidate stays with the policy."""
    policy = make_network("mlp").make_policy(mode="greedy", seed=0)
    if memoized:
        policy.memo = PolicyMemo()
    inner = NetworkPolicyBase._probabilities

    def peaked_off_mask(self, env, actions):
        observation, mask, probs = inner(self, env, actions)
        probs = np.where(mask, 0.0, 1.0)
        return observation, mask, probs / probs.sum()

    monkeypatch.setattr(NetworkPolicyBase, "_probabilities", peaked_off_mask)
    env = two_big_two_small()
    with pytest.raises(EnvironmentStateError, match="masked action"):
        policy.playout(env, LIMIT)
    assert env.steps_taken == 0


# ---------------------------------------------------------------------- #
# whole Spear plans
# ---------------------------------------------------------------------- #


def _golden_cases():
    path = Path(__file__).resolve().parents[2] / "data" / "make_spear_plan_golden.py"
    spec = importlib.util.spec_from_file_location("make_spear_plan_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = _golden_cases()

#: (decisions, iterations, rollouts, policy_evaluations, policy_memo_hits)
#: of the golden plans, recorded at cb168db — the last commit whose
#: rollouts were a ``select`` -> ``step`` loop.
STATISTICS_AT_PARENT = {
    ("mlp", 101): (39, 216, 170, 936, 889),
    ("mlp", 202): (40, 221, 193, 1194, 1104),
    ("mlp", 303): (40, 221, 196, 1200, 1119),
    ("gnn", 101): (39, 216, 170, 937, 848),
    ("gnn", 202): (40, 221, 192, 1238, 1135),
    ("gnn", 303): (40, 221, 196, 1105, 958),
}


def golden_scheduler(model, seed):
    env = EnvConfig(process_until_completion=True)
    graph = random_layered_dag(WorkloadConfig(num_tasks=GOLDEN.NUM_TASKS), seed=seed)
    network = (default_network if model == "mlp" else default_graph_network)(
        env, seed=seed
    )
    return make_scheduler(GOLDEN.SPEC, env, network=network, seed=seed), graph


@pytest.mark.parametrize("model, seed", sorted(STATISTICS_AT_PARENT))
def test_spear_plan_selects_nothing_and_counts_what_the_parent_counted(
    model, seed, monkeypatch
):
    selects = []
    inner = NetworkPolicyBase.select

    def spying(self, env):
        selects.append(self)
        return inner(self, env)

    monkeypatch.setattr(NetworkPolicyBase, "select", spying)
    scheduler, graph = golden_scheduler(model, seed)
    scheduler.plan(ScheduleRequest(graph))
    stats = scheduler.last_statistics
    assert selects == []
    assert stats.rollouts > 0
    assert (
        stats.decisions,
        stats.iterations,
        stats.rollouts,
        stats.policy_evaluations,
        stats.policy_memo_hits,
    ) == STATISTICS_AT_PARENT[model, seed]


@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_spear_plan_equals_the_plan_of_the_unfused_rollout(model, monkeypatch):
    def outcome():
        scheduler, graph = golden_scheduler(model, GOLDEN.GRAPH_SEEDS[0])
        schedule = scheduler.plan(ScheduleRequest(graph))
        return {
            "starts": {t: schedule.start_of(t) for t in sorted(graph.tasks())},
            "stats": scheduler.last_statistics,
            "rng": scheduler.rollout._policy._rng.bit_generator.state,
        }

    fused = outcome()
    monkeypatch.setattr(
        NetworkRollout,
        "rollout",
        lambda self, env: reference_playout(self._policy, env, self.step_limit(env)),
    )
    assert outcome() == fused
