"""Unit tests for router policies and the router spec grammar."""

import pytest

from repro.errors import ConfigError
from repro.federation import (
    AffinityRouter,
    FederationLedger,
    HashRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Shard,
    ShardSpec,
    parse_router_spec,
    split_capacities,
)
from repro.online import fifo_ranker
from repro.online.results import ArrivingJob
from repro.sim import SimKernel
from repro.telemetry import runtime as telemetry


def make_shards(n, capacities=(5, 5)):
    kernel = SimKernel()
    tm = telemetry.active()
    ledger = FederationLedger(tm)
    return [
        Shard(k, ShardSpec(capacities, fifo_ranker), kernel, tm, 0, 8, ledger)
        for k in range(n)
    ]


def job(arrival=0):
    from repro.config import WorkloadConfig
    from repro.dag.generators import random_layered_dag

    workload = WorkloadConfig(
        num_tasks=4, max_runtime=4, max_demand=3, runtime_mean=2.0, demand_mean=2.0
    )
    return ArrivingJob(arrival, random_layered_dag(workload, seed=1))


class TestSpecGrammar:
    def test_all_policies_parse(self):
        assert isinstance(parse_router_spec("round-robin"), RoundRobinRouter)
        assert isinstance(parse_router_spec("least-load"), LeastLoadedRouter)
        assert isinstance(parse_router_spec("hash"), HashRouter)
        assert isinstance(parse_router_spec("affinity"), AffinityRouter)

    def test_options_parse(self):
        router = parse_router_spec("least-load:metric=tasks")
        assert router.metric == "tasks"
        assert parse_router_spec("hash:salt=7").salt == 7
        assert parse_router_spec("affinity:spill=4").spill == 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="router spec 'random': unknown router 'random'"):
            parse_router_spec("random")

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError, match="router spec 'hash:pepper=1': unknown key 'pepper'"):
            parse_router_spec("hash:pepper=1")

    def test_bad_option_shapes_rejected(self):
        with pytest.raises(ConfigError, match="not key=value"):
            parse_router_spec("hash:salt")
        with pytest.raises(ConfigError, match="salt='abc' is not an int"):
            parse_router_spec("hash:salt=abc")

    def test_bad_option_values_rejected(self):
        with pytest.raises(ConfigError, match="metric must be jobs or tasks"):
            parse_router_spec("least-load:metric=ram")
        with pytest.raises(ConfigError, match="spill must be >= 1"):
            parse_router_spec("affinity:spill=0")


class TestPolicies:
    def test_round_robin_cycles_feasible(self):
        shards = make_shards(3)
        router = RoundRobinRouter()
        picks = [router.route(i, job(), shards, 3).id for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_emptiest_then_lowest_id(self):
        shards = make_shards(3)
        router = LeastLoadedRouter()
        assert router.route(0, job(), shards, 3).id == 0
        shards[0].execution.admit(0, 0, job().graph)
        assert router.route(1, job(), shards, 3).id == 1

    def test_least_loaded_task_metric_counts_tasks(self):
        shards = make_shards(2)
        router = LeastLoadedRouter(metric="tasks")
        shards[0].execution.admit(0, 0, job().graph)
        assert shards[0].task_load() > 0
        assert router.route(1, job(), shards, 2).id == 1

    def test_hash_is_deterministic_and_salt_sensitive(self):
        shards = make_shards(4)
        plain = HashRouter()
        salted = HashRouter(salt=5)
        picks_a = [plain.route(i, job(), shards, 4).id for i in range(16)]
        picks_b = [plain.route(i, job(), shards, 4).id for i in range(16)]
        assert picks_a == picks_b
        assert len(set(picks_a)) > 1  # actually spreads
        assert picks_a != [salted.route(i, job(), shards, 4).id for i in range(16)]

    def test_affinity_homes_by_index_mod_shards(self):
        shards = make_shards(3)
        router = AffinityRouter()
        assert [router.route(i, job(), shards, 3).id for i in range(6)] == [
            0, 1, 2, 0, 1, 2,
        ]

    def test_affinity_spills_hot_home_to_least_loaded(self):
        shards = make_shards(3)
        router = AffinityRouter(spill=1)
        shards[0].execution.admit(0, 0, job().graph)  # home 0 is hot
        assert router.route(3, job(), shards, 3).id == 1

    def test_affinity_falls_back_when_home_infeasible(self):
        shards = make_shards(3)
        router = AffinityRouter()
        # Home shard 0 not in the feasible set at all.
        assert router.route(0, job(), shards[1:], 3).id == 1


class TestSplitCapacities:
    def test_even_split(self):
        assert split_capacities((20, 20), 4) == [(5, 5)] * 4

    def test_remainder_goes_to_low_ids(self):
        assert split_capacities((20, 20), 3) == [(7, 7), (7, 7), (6, 6)]

    def test_too_many_shards_rejected(self):
        with pytest.raises(ConfigError, match="cannot split"):
            split_capacities((2, 2), 3)

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError, match="at least one shard"):
            split_capacities((20, 20), 0)


class TestLedger:
    def test_sample_compresses_duplicates(self):
        ledger = FederationLedger(telemetry.active())
        ledger.sample_in_system(0, 1)
        ledger.sample_in_system(3, 1)  # same count: skipped
        ledger.sample_in_system(5, 2)
        ledger.sample_in_system(5, 3)  # same time: replaced
        assert ledger.in_system_series == [(0, 1), (5, 3)]

    def test_cutoff_is_idempotent(self):
        ledger = FederationLedger(telemetry.active())
        ledger.record_cutoff(10)
        ledger.record_cutoff(20)
        assert ledger.horizon_cutoff == 10
