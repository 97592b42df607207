"""The fused guided playout against the ``select`` -> ``step`` loop.

``SchedulingEnv.policy_playout`` applies single-candidate moves itself
and calls the policy only where there is a choice to make;
``NetworkPolicyBase.playout`` and ``GreedyPolicy.playout`` are the
policies' half of it, behind ``NetworkRollout.rollout``, ``run_policy``
and ``GreedyRollout.rollout``.  The reference everywhere below is the
loop those calls replaced — ``while not env.done:
env.step(policy.select(env))``, which the default ``Policy.playout``
still is — over the unchanged ``select`` and ``step``: same actions, same
counters, same memo traffic and the same generator state, from the first
state of an episode or the middle of one.
"""

import re

import numpy as np
import pytest

from repro import ScheduleRequest
from repro.config import ClusterConfig, EnvConfig, GnnConfig, NetworkConfig, WorkloadConfig
from repro.core.guidance import NetworkRollout
from repro.core.pipeline import default_graph_network, default_network
from repro.dag.generators import chain_dag, independent_tasks_dag, random_layered_dag
from repro.env.actions import PROCESS
from repro.env.scheduling_env import SchedulingEnv, step_limit_exceeded
from repro.errors import CapacityError, ConfigError, EnvironmentStateError
from repro.mcts.policies import GreedyRollout
from repro.rl.agent import NetworkPolicyBase, PolicyMemo, candidate_actions
from repro.schedulers.base import GreedyPolicy, Policy, run_policy
from repro.schedulers.policies import RandomPolicy, TetrisPolicy, greedy_policy
from repro.schedulers.rules import (
    alignment_score,
    plan_priority_ranker,
    tetris_ranker,
)
from tests.golden import spear as spear_golden

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
    """The episode loop as every caller spelled it before ``playout``."""
    steps = 0
    while not env.done:
        if steps >= limit:
            raise step_limit_exceeded(limit)
        env.step(policy.select(env))
        steps += 1
    return env.makespan


def _cap_message(limit: int) -> str:
    """The one message every playout raises at its step cap, as a regex."""
    message = str(step_limit_exceeded(limit))
    assert "livelocked policy" in message and "network" not in message
    return re.escape(message)


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
    with pytest.raises(EnvironmentStateError, match=_cap_message(needed - 1)):
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
# the heuristics' half: GreedyPolicy.playout == select/step, per episode
# ---------------------------------------------------------------------- #


def _half_order(graph):
    """A priority order naming every other task, shuffled: the rest rank
    last by id, which is the fallback Graphene's online pass relies on."""
    ids = sorted(graph.tasks())
    order = [int(t) for t in np.random.default_rng(len(ids)).permutation(ids)]
    return order[::2]


HEURISTICS = {
    "tetris": lambda graph: greedy_policy("tetris"),
    "sjf": lambda graph: greedy_policy("sjf"),
    "cp": lambda graph: greedy_policy("cp"),
    "priority-list": lambda graph: GreedyPolicy(
        plan_priority_ranker([_half_order(graph)]), "priority-list"
    ),
    "heft": lambda graph: greedy_policy("heft"),
    "lpt": lambda graph: greedy_policy("lpt"),
    "fifo": lambda graph: greedy_policy("fifo"),
}


def test_the_seven_heuristics_are_the_greedy_policies():
    """One ``select``, one ``playout`` and one ``choose`` for all of them:
    a heuristic is its ranking rule and nothing else.  Tetris alone keeps
    a hand-rolled ``choose`` (the served heuristic; it evaluates the same
    rule, see the argmax test below)."""
    policies = [make(chain_dag([1])) for make in HEURISTICS.values()]
    assert len({policy.ranker for policy in policies}) == 7
    for policy in policies:
        cls = type(policy)
        assert issubclass(cls, GreedyPolicy)
        assert cls.select is GreedyPolicy.select
        assert cls.playout is GreedyPolicy.playout
        assert (cls.choose is GreedyPolicy.choose) == (cls is not TetrisPolicy)
        assert "choose" in vars(cls)
    assert not issubclass(RandomPolicy, GreedyPolicy)
    assert RandomPolicy.playout is Policy.playout


def decided_states(env, policy):
    """Step a clone through the reference loop; the (signature,
    candidates) of every state that offers a choice, in order."""
    twin = env.clone()
    states = []
    while not twin.done:
        candidates = candidate_actions(twin, True)
        if len(candidates) > 1:
            states.append((twin.signature(), candidates))
        twin.step(policy.select(twin))
    return states


@pytest.mark.parametrize("capacities", [(10, 10), (10, 10, 10)], ids=["2d", "3d"])
@pytest.mark.parametrize("until_completion", [True, False], ids=["event", "slot"])
@pytest.mark.parametrize("name", sorted(HEURISTICS))
def test_heuristic_playout_is_the_select_step_loop(name, until_completion, capacities):
    config = env_config(until_completion, capacities)
    decided = 0
    for graph_seed in GRAPH_SEEDS:
        graph = random_layered_dag(
            WORKLOAD, seed=graph_seed, num_resources=len(capacities)
        )
        for prefix in (0, 6):
            outcomes = []
            for play in (
                lambda policy, env: policy.playout(env, LIMIT),
                reference_playout,
                lambda policy, env: Policy.playout(policy, env, LIMIT),
            ):
                env = SchedulingEnv(graph, config)
                random_prefix(env, np.random.default_rng(prefix), prefix)
                policy = HEURISTICS[name](graph)
                policy.begin_episode(env)
                before = env.steps_taken
                makespan = play(policy, env)
                assert env.done and env.steps_taken > before
                outcomes.append(
                    (makespan, env.start_times(), env.signature(), env.steps_taken)
                )
            assert outcomes[0] == outcomes[1] == outcomes[2]
            probe = SchedulingEnv(graph, config)
            random_prefix(probe, np.random.default_rng(prefix), prefix)
            decided += len(decided_states(probe, HEURISTICS[name](graph)))
    assert decided > 0


def _spied(cls, calls):
    class Spy(cls):
        def choose(self, env, fitting):
            calls.append((env.signature(), list(fitting)))
            return super().choose(env, fitting)

        def select(self, env):
            raise AssertionError("an episode runner called select")

    return Spy


@pytest.mark.parametrize(
    "runner",
    [
        pytest.param(lambda make, env: make().playout(env, LIMIT), id="playout"),
        pytest.param(lambda make, env: run_policy(env, make()), id="run_policy"),
        pytest.param(
            lambda make, env: GreedyRollout(make).rollout(env), id="greedy-rollout"
        ),
    ],
)
@pytest.mark.parametrize("name", sorted(HEURISTICS))
def test_choose_runs_once_per_real_decision_and_select_never(name, runner):
    config = env_config()
    for graph_seed in GRAPH_SEEDS:
        graph = random_layered_dag(WORKLOAD, seed=graph_seed)
        plain = HEURISTICS[name](graph)
        env = SchedulingEnv(graph, config)
        random_prefix(env, np.random.default_rng(graph_seed), 4)
        expected = decided_states(env, plain)
        calls = []
        spy_class = _spied(type(plain), calls)
        if spy_class.__base__ is TetrisPolicy:
            make = spy_class
        else:
            make = lambda: spy_class(plain.ranker, plain.name)
        runner(make, env)
        assert env.done
        assert calls == expected and len(calls) > 0
        for _, fitting in calls:
            assert len(fitting) >= 2 and PROCESS not in fitting
            assert fitting == sorted(fitting)


def test_select_returns_a_single_candidate_without_ranking():
    class NoRanking(GreedyPolicy):
        def choose(self, env, fitting):
            raise AssertionError("nothing to rank")

    policy = NoRanking(tetris_ranker, "no-ranking")
    env = SchedulingEnv(chain_dag([2, 3], demands=[(2, 1)] * 2), env_config())
    assert policy.select(env) == 0  # one task fits, nothing runs
    env.step(0)
    assert policy.select(env) == PROCESS  # nothing fits, one task runs
    env.step(PROCESS)
    assert env.legal_actions() == [0] and policy.select(env) == 0
    env.step(0)
    env.step(PROCESS)
    # A finished episode has no legal action; ``step`` is what refuses.
    assert env.done and policy.select(env) == PROCESS
    # One task fits while another runs: PROCESS is legal, not a candidate.
    graph = independent_tasks_dag([2, 2], demands=[(6, 6), (3, 3)])
    env = SchedulingEnv(graph, env_config())
    env.step(0)
    assert env.legal_actions() == [0, PROCESS] and policy.select(env) == 0


@pytest.mark.parametrize("capacities", [(10, 10), (10, 10, 10)], ids=["2d", "3d"])
def test_tetris_choose_is_the_argmax_of_alignment_score(capacities):
    """``choose`` is a hand-rolled loop; ``tetris_ranker`` stays the
    definition of what it picks: the smallest key, i.e. the highest
    alignment score, ties to the smaller id."""
    workload = WorkloadConfig(
        num_tasks=40, max_runtime=5, max_demand=3,
        runtime_mean=3, runtime_std=1, demand_mean=2, demand_std=1,
    )
    config = EnvConfig(
        cluster=ClusterConfig(capacities=capacities, horizon=8),
        max_ready=6,
        process_until_completion=True,
    )
    policy = TetrisPolicy()
    by_key = GreedyPolicy(tetris_ranker, "tetris")
    decided = ties = 0
    for graph_seed in range(12):
        graph = random_layered_dag(
            workload, seed=graph_seed, num_resources=len(capacities)
        )
        env = SchedulingEnv(graph, config)
        chooser = np.random.default_rng(graph_seed)
        while not env.done:
            fitting = candidate_actions(env, True)
            if len(fitting) > 1:
                visible = env.visible_ready()
                available = env.cluster.available
                expected = by_key.choose(env, list(fitting))
                assert policy.choose(env, list(fitting)) == expected
                assert policy.select(env) == expected
                decided += 1
                scores = {
                    alignment_score(graph.task(visible[a]).demands, available)
                    for a in fitting
                }
                ties += len(scores) < len(fitting)
            # Wander: any legal move, so odd states are ranked too.
            actions = env.legal_actions()
            env.step(actions[int(chooser.integers(len(actions)))])
    assert decided > 50 and ties > 10


class _ViaSelect(Policy):
    """A custom policy: only ``select``, so the default ``playout``."""

    def __init__(self) -> None:
        self._inner = greedy_policy("sjf")

    def select(self, env):
        return self._inner.select(env)


@pytest.mark.parametrize("until_completion", [True, False], ids=["event", "slot"])
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(_ViaSelect, id="default"),
        pytest.param(lambda: greedy_policy("sjf"), id="greedy"),
        pytest.param(
            lambda: make_network("mlp").make_policy(mode="greedy", seed=0),
            id="network",
        ),
    ],
)
def test_every_playout_raises_the_same_error_at_the_exact_cap(make, until_completion):
    config = env_config(until_completion)
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    env = SchedulingEnv(graph, config)
    makespan = make().playout(env, LIMIT)
    needed = env.steps_taken

    exact = SchedulingEnv(graph, config)
    assert make().playout(exact, needed) == makespan

    short = SchedulingEnv(graph, config)
    with pytest.raises(EnvironmentStateError, match=_cap_message(needed - 1)):
        make().playout(short, needed - 1)
    assert short.steps_taken == needed - 1 and not short.done

    mid = SchedulingEnv(graph, config)
    random_prefix(mid, np.random.default_rng(1), 4)
    with pytest.raises(EnvironmentStateError, match=_cap_message(0)):
        make().playout(mid, 0)
    assert mid.steps_taken == 4


def test_episode_runners_pass_their_cap_to_playout():
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[1])
    with pytest.raises(EnvironmentStateError, match=_cap_message(3)):
        run_policy(SchedulingEnv(graph, env_config()), TetrisPolicy(), max_steps=3)
    rollout = GreedyRollout()
    rollout.max_steps_factor = 0
    with pytest.raises(EnvironmentStateError, match=_cap_message(0)):
        rollout.rollout(SchedulingEnv(graph, env_config()))


# ---------------------------------------------------------------------- #
# whole Spear plans
# ---------------------------------------------------------------------- #


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
    scheduler, graph = spear_golden.scheduler(model, seed)
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
        scheduler, graph = spear_golden.scheduler(model, spear_golden.GRAPH_SEEDS[0])
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
