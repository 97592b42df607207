"""The per-plan policy memo: exact, scoped to one plan, bounded, and off
everywhere outside a Spear search and a trainer's rollout group (whose
memo ``tests/unit/rl/test_rollout_group_memo.py`` pins).

The reference is the same scheduler with the memo never installed — the
guidance policies then take the fresh-evaluation branch of the policy
step in every state, which is the step as it was before the memo.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.rl.agent as agent_module
from repro import EnvConfig, MctsConfig, ScheduleRequest, WorkloadConfig
from repro.config import GnnConfig, NetworkConfig, TrainingConfig
from repro.core import SpearScheduler
from repro.core.guidance import NetworkExpansion, NetworkRollout, _MemoizedGuidance
from repro.core.pipeline import default_graph_network, default_network
from repro.dag import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv
from repro.rl.agent import NetworkPolicy, NetworkPolicyBase, PolicyMemo
from repro.rl.ppo import PpoTrainer
from repro.rl.reinforce import ReinforceTrainer
from repro.rl.trajectories import rollout_trajectory
from repro.schedulers.base import ClusterSnapshot, PolicyScheduler

ENV = EnvConfig(process_until_completion=True)
WORKLOAD = WorkloadConfig(num_tasks=20)
GRAPH_SEEDS = (101, 202, 303)
SEARCH = MctsConfig(initial_budget=20, min_budget=5)  # spear:budget=20,min_budget=5


def make_network(model, seed=7):
    if model == "mlp":
        return default_network(ENV, NetworkConfig(hidden_sizes=(16, 8)), seed=seed)
    return default_graph_network(
        ENV,
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=4),
        seed=seed,
    )


def spear(network, rng, rollout_mode="sample"):
    return SpearScheduler(
        network, config=SEARCH, env_config=ENV, seed=rng, rollout_mode=rollout_mode
    )


def outcome(scheduler, request, rng):
    """Everything a plan determines: starts, statistics, generator state."""
    schedule = scheduler.plan(request)
    stats = scheduler.last_statistics
    return {
        "starts": {t: schedule.start_of(t) for t in sorted(request.graph.tasks())},
        "stats": replace(stats, policy_evaluations=0, policy_memo_hits=0),
        "rng": rng.bit_generator.state,
    }


@pytest.fixture
def no_memo(monkeypatch):
    """Guidance that begins a search without installing its memo."""

    def begin(self, env):
        pass

    def install():
        monkeypatch.setattr(_MemoizedGuidance, "begin_search", begin)

    return install


# ---------------------------------------------------------------------- #
# exact
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
@pytest.mark.parametrize("rollout_mode", ["sample", "greedy"])
@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_memo_changes_no_plan_statistic_or_draw(
    model, rollout_mode, graph_seed, no_memo
):
    graph = random_layered_dag(WORKLOAD, seed=graph_seed)
    network = make_network(model)
    request = ScheduleRequest(graph)

    rng = np.random.default_rng(graph_seed)
    scheduler = spear(network, rng, rollout_mode)
    with_memo = outcome(scheduler, request, rng)
    counted = scheduler.last_statistics
    assert counted.policy_evaluations > counted.policy_memo_hits > 0

    no_memo()
    rng = np.random.default_rng(graph_seed)
    scheduler = spear(network, rng, rollout_mode)
    reference = outcome(scheduler, request, rng)
    assert scheduler.last_statistics.policy_evaluations == 0

    assert with_memo == reference


# ---------------------------------------------------------------------- #
# scoped
# ---------------------------------------------------------------------- #


def test_memo_is_empty_and_detached_outside_plan():
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    scheduler = spear(make_network("mlp"), np.random.default_rng(0))
    expansion, rollout = scheduler.expansion, scheduler.rollout
    assert expansion.memo is rollout.memo
    scheduler.plan(ScheduleRequest(graph))
    memo = expansion.memo
    assert not memo.rows and memo.evaluations == memo.hits == 0
    assert expansion._policy.memo is None and rollout._policy.memo is None
    # A rollout called directly (no search around it) evaluates afresh.
    rollout.rollout(SchedulingEnv(graph, ENV))
    assert not memo.rows and rollout._policy.memo is None


def test_memo_is_released_when_the_search_raises(monkeypatch):
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    scheduler = spear(make_network("mlp"), np.random.default_rng(0))
    calls = []
    inner = NetworkRollout.rollout

    def failing(self, env):
        calls.append(len(self.memo.rows))
        if len(calls) == 30:
            raise RuntimeError("boom")
        return inner(self, env)

    monkeypatch.setattr(NetworkRollout, "rollout", failing)
    with pytest.raises(RuntimeError, match="boom"):
        scheduler.plan(ScheduleRequest(graph))
    assert calls[-1] > 0, "the search had filled the memo before it failed"
    assert not scheduler.rollout.memo.rows
    assert scheduler.rollout._policy.memo is None
    assert scheduler.expansion._policy.memo is None


@pytest.mark.parametrize("rollout_mode", ["sample", "greedy"])
def test_parameters_may_move_between_plans(rollout_mode):
    """The optimizer mutates ``params`` in place; a plan made after that
    must be the perturbed network's plan, not a replay of remembered
    distributions."""
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[1])
    request = ScheduleRequest(graph)
    network = make_network("mlp")
    rng = np.random.default_rng(5)
    scheduler = spear(network, rng, rollout_mode)
    before = outcome(scheduler, request, rng)

    perturbation = np.random.default_rng(9)
    for value in network.params.values():
        value += perturbation.normal(0.0, 0.5, size=value.shape)
    resumed = rng.bit_generator.state
    second = outcome(scheduler, request, rng)

    fresh_rng = np.random.default_rng(0)
    fresh_rng.bit_generator.state = resumed
    fresh = outcome(spear(network, fresh_rng, rollout_mode), request, fresh_rng)
    assert second == fresh
    assert second["starts"] != before["starts"], "the perturbation was a no-op"


def test_degraded_replan_of_the_same_graph_object():
    """Same graph object, other capacities: nothing of the first plan —
    memo rows or the featurizer's capacity normalization — may leak."""
    workload = WorkloadConfig(num_tasks=20, max_demand=12, demand_mean=6.0)
    graph = random_layered_dag(workload, seed=404)
    degraded = ScheduleRequest(
        graph,
        cluster=ClusterSnapshot(capacities=(14, 14)),
    )
    network = make_network("mlp")
    rng = np.random.default_rng(3)
    scheduler = spear(network, rng)
    scheduler.plan(ScheduleRequest(graph))
    resumed = rng.bit_generator.state
    second = outcome(scheduler, degraded, rng)

    fresh_rng = np.random.default_rng(0)
    fresh_rng.bit_generator.state = resumed
    fresh = outcome(spear(network, fresh_rng), degraded, fresh_rng)
    assert second == fresh


# ---------------------------------------------------------------------- #
# bounded
# ---------------------------------------------------------------------- #


def test_cap_evicts_without_changing_the_plan(monkeypatch):
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[2])
    request = ScheduleRequest(graph)
    network = make_network("mlp")
    rng = np.random.default_rng(11)
    unbounded = outcome(spear(network, rng), request, rng)

    sizes = []
    inner = NetworkPolicyBase._memoized

    def watching(self, builder, env, actions):
        row = inner(self, builder, env, actions)
        sizes.append(len(self.memo.rows))
        return row

    monkeypatch.setattr(agent_module, "_MEMO_CAP", 4)
    monkeypatch.setattr(NetworkPolicyBase, "_memoized", watching)
    rng = np.random.default_rng(11)
    capped = outcome(spear(network, rng), request, rng)
    assert capped == unbounded
    assert max(sizes) == 4 and sizes.count(1) > 1, "the memo never evicted"


# ---------------------------------------------------------------------- #
# off everywhere else
# ---------------------------------------------------------------------- #


@pytest.fixture
def memo_spy(monkeypatch):
    """Counts memo constructions and lookups."""
    seen = {"memos": 0, "lookups": 0}
    init = PolicyMemo.__init__
    lookup = NetworkPolicyBase._memoized

    def counting_init(self):
        seen["memos"] += 1
        init(self)

    def counting_lookup(self, builder, env, actions):
        seen["lookups"] += 1
        return lookup(self, builder, env, actions)

    monkeypatch.setattr(PolicyMemo, "__init__", counting_init)
    monkeypatch.setattr(NetworkPolicyBase, "_memoized", counting_lookup)
    return seen


def test_standalone_policies_never_memoize(memo_spy):
    workload = WorkloadConfig(num_tasks=8)
    graphs = [random_layered_dag(workload, seed=s) for s in (1, 2)]
    network = make_network("mlp")
    policy = network.make_policy(mode="sample", seed=0)
    rollout_trajectory(SchedulingEnv(graphs[0], ENV), policy, 10_000)
    assert policy.memo is None

    drl = PolicyScheduler(
        lambda: NetworkPolicy(network, mode="greedy"), ENV, name="drl"
    )
    drl.plan(ScheduleRequest(graphs[1]))
    assert memo_spy == {"memos": 0, "lookups": 0}

    # The spy does see a Spear search.
    SpearScheduler(network, config=SEARCH, env_config=ENV, seed=0).plan(
        ScheduleRequest(graphs[0])
    )
    assert memo_spy["memos"] == 2 and memo_spy["lookups"] > 0


@pytest.mark.parametrize(
    "trainer_cls, model", [(ReinforceTrainer, "mlp"), (PpoTrainer, "gnn")]
)
def test_a_trainers_memo_is_live_only_inside_sample_trajectories(
    trainer_cls, model, memo_spy, monkeypatch
):
    workload = WorkloadConfig(num_tasks=8)
    graphs = [random_layered_dag(workload, seed=s) for s in (1, 2)]
    training = TrainingConfig(
        rollouts_per_example=3, batch_size=2, ppo_epochs=1, value_epochs=1
    )
    trainer = trainer_cls(make_network(model), graphs, ENV, training, seed=0)
    assert memo_spy["memos"] == 1
    inside = []
    policies = []
    sample = trainer_cls.sample_trajectories
    make_policy = trainer.make_policy
    lookup = NetworkPolicyBase._memoized

    def sampling(self, graph):
        inside.append(True)
        try:
            return sample(self, graph)
        finally:
            inside.pop()

    def making(mode, seed=None):
        policies.append(make_policy(mode, seed=seed))
        return policies[-1]

    def checked_lookup(self, builder, env, actions):
        assert inside and self.memo is trainer.memo
        return lookup(self, builder, env, actions)

    monkeypatch.setattr(trainer_cls, "sample_trajectories", sampling)
    monkeypatch.setattr(trainer, "make_policy", making)
    monkeypatch.setattr(NetworkPolicyBase, "_memoized", checked_lookup)
    trainer.train_epoch(0)
    assert len(policies) == len(graphs) * training.rollouts_per_example
    assert all(policy.memo is None for policy in policies)
    memo = trainer.memo
    assert not memo.rows and memo.evaluations == memo.hits == 0
    # Evaluating after training memoizes nothing.
    trainer.evaluate(graphs)
    assert memo_spy["memos"] == 1 and not memo.rows


def test_recording_through_a_memo_records_what_it_records_without():
    """A hit records the observation and mask the miss stored — the ones
    evaluating the state again would build."""
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    network = make_network("mlp")
    memo = PolicyMemo()
    for seed in range(4):
        policy = network.make_policy(mode="sample", seed=seed)
        policy.memo = memo
        got = rollout_trajectory(SchedulingEnv(graph, ENV), policy, 10_000)
        reference = network.make_policy(mode="sample", seed=seed)
        want = rollout_trajectory(SchedulingEnv(graph, ENV), reference, 10_000)
        assert got.decisions
        assert len(got.decisions) == len(want.decisions)
        for mine, theirs in zip(got.decisions, want.decisions):
            assert mine.observation.tobytes() == theirs.observation.tobytes()
            assert mine.mask.tobytes() == theirs.mask.tobytes()
            assert (mine.action_index, mine.position) == (
                theirs.action_index,
                theirs.position,
            )
        assert got.rewards.tobytes() == want.rewards.tobytes()
        assert got.makespan == want.makespan
        assert policy._rng.bit_generator.state == reference._rng.bit_generator.state
    assert memo.hits > 0 and memo.rows


# ---------------------------------------------------------------------- #
# observable
# ---------------------------------------------------------------------- #


def test_hit_rate_reaches_the_trace():
    from repro.config import TelemetryConfig
    from repro.telemetry import session

    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    scheduler = spear(make_network("mlp"), np.random.default_rng(0))
    with session(TelemetryConfig(enabled=True)) as tm:
        scheduler.plan(ScheduleRequest(graph))
        (search,) = [e for e in tm.events() if e.name == "mcts.schedule"]
    stats = scheduler.last_statistics
    assert stats.policy_evaluations > stats.policy_memo_hits > 0
    assert search.attrs["policy_evaluations"] == stats.policy_evaluations
    assert search.attrs["policy_memo_hits"] == stats.policy_memo_hits
    counter = tm.metrics.counter
    assert counter("spear.policy_evaluations").total == stats.policy_evaluations
    assert counter("spear.policy_memo_hits").total == stats.policy_memo_hits


def test_separately_built_guidance_counts_both_memos():
    """Expansion and rollout built by hand do not share a store; each
    reports its own lookups into the plan's statistics."""
    from repro.mcts.search import MctsScheduler

    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    network = make_network("mlp")
    scheduler = MctsScheduler(
        SEARCH,
        ENV,
        expansion=NetworkExpansion(network),
        rollout=NetworkRollout(network, seed=1),
    )
    assert scheduler.expansion.memo is not scheduler.rollout.memo
    scheduler.plan(ScheduleRequest(graph))
    separate = scheduler.last_statistics
    shared = spear(network, np.random.default_rng(1))
    shared.plan(ScheduleRequest(graph))
    assert separate.policy_evaluations == shared.last_statistics.policy_evaluations
    assert separate.policy_memo_hits <= shared.last_statistics.policy_memo_hits
