"""Unit tests for the federated streaming engine and result assembly."""

import pytest

from repro.errors import ConfigError
from repro.federation import (
    FederatedStreamingSimulator,
    FederationComparison,
    ShardSpec,
)
from repro.online import fifo_ranker, sjf_ranker
from repro.streaming import (
    PoissonProcess,
    StreamingSimulator,
    layered_job_factory,
    streaming_workload,
)
from repro.config import ClusterConfig


def poisson(seed=0, n=30, rate=0.3):
    return PoissonProcess(
        rate, n, layered_job_factory(streaming_workload(num_tasks=6)), seed=seed
    )


def two_shards(ranker=sjf_ranker):
    return [ShardSpec((5, 5), ranker), ShardSpec((5, 5), ranker)]


class TestConfigValidation:
    def test_no_shards_rejected(self):
        with pytest.raises(ConfigError, match="at least one shard"):
            FederatedStreamingSimulator([])

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ConfigError, match="dimensionality"):
            FederatedStreamingSimulator(
                [ShardSpec((5, 5), sjf_ranker), ShardSpec((5, 5, 5), sjf_ranker)]
            )

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError, match="threshold"):
            FederatedStreamingSimulator(two_shards(), steal_threshold=-1)

    def test_bad_router_spec_rejected(self):
        with pytest.raises(ConfigError, match="router spec 'magic': unknown router 'magic'"):
            FederatedStreamingSimulator(two_shards(), router="magic")

    def test_nonpositive_shard_capacity_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            ShardSpec((5, 0), sjf_ranker)

    def test_empty_stream_rejected(self):
        class Empty:
            task_id_bound = 8

            def jobs(self):
                return iter(())

        with pytest.raises(ConfigError, match="no jobs"):
            FederatedStreamingSimulator(two_shards()).run(Empty())

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            FederatedStreamingSimulator(two_shards()).run(poisson(), horizon=-1)


class TestFederatedRun:
    def test_all_jobs_accounted_for(self):
        result = FederatedStreamingSimulator(
            two_shards(), router="least-load", steal_threshold=2
        ).run(poisson())
        aggregate = result.aggregate
        assert aggregate.arrivals == 30
        assert aggregate.admitted + len(aggregate.rejected) == 30
        assert aggregate.online.completed_jobs + aggregate.online.failed_jobs == 30
        assert sum(r.routed for r in result.shards) == 30

    def test_determinism(self):
        def run():
            return FederatedStreamingSimulator(
                two_shards(), router="least-load", steal_threshold=1
            ).run(poisson(seed=9))

        a, b = run(), run()
        assert a.aggregate == b.aggregate
        assert a.steals == b.steals
        assert a.metrics_dict() == b.metrics_dict()

    def test_horizon_cuts_off_stream(self):
        result = FederatedStreamingSimulator(two_shards()).run(
            poisson(rate=0.1, n=40), horizon=50
        )
        aggregate = result.aggregate
        assert aggregate.horizon_cutoff != -1
        assert aggregate.rejected
        assert all(r.reason == "horizon" for r in aggregate.rejected)
        assert aggregate.admitted + len(aggregate.rejected) == aggregate.arrivals

    def test_per_shard_utilization_reported(self):
        result = FederatedStreamingSimulator(two_shards()).run(poisson())
        for report in result.shards:
            assert len(report.result.online.mean_utilization) == 2
            assert all(0.0 <= u <= 1.0 for u in report.result.online.mean_utilization)

    def test_heterogeneous_rankers_per_shard(self):
        specs = [ShardSpec((5, 5), fifo_ranker), ShardSpec((5, 5), sjf_ranker)]
        result = FederatedStreamingSimulator(specs, router="round-robin").run(poisson())
        assert result.aggregate.online.completed_jobs == 30


class TestMetricsSchema:
    def test_federation_section_shape(self):
        result = FederatedStreamingSimulator(
            two_shards(), router="hash:salt=2", steal_threshold=3
        ).run(poisson(n=12))
        metrics = result.metrics_dict()
        assert metrics["schema"] == 1
        fed = metrics["federation"]
        assert fed["router"] == "hash"
        assert fed["steal_threshold"] == 3
        assert set(fed["steals"]) == {"total", "backlog", "admitted", "rescue"}
        assert len(fed["shards"]) == 2
        for entry in fed["shards"]:
            assert set(entry) == {
                "id", "capacities", "routed", "admitted", "completed",
                "failed", "rejected", "stolen_in", "stolen_out",
                "utilization", "p99_jct",
            }

    def test_report_mentions_shards(self):
        result = FederatedStreamingSimulator(two_shards()).run(poisson(n=8))
        text = result.report()
        assert "2 shards" in text and "shard 0" in text and "shard 1" in text


class TestComparison:
    def test_comparison_deltas(self):
        fed = FederatedStreamingSimulator(two_shards(), router="least-load").run(
            poisson(n=15)
        )
        glob = StreamingSimulator(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8)
        ).run(poisson(n=15), sjf_ranker)
        comparison = FederationComparison(fed, glob)
        metrics = comparison.metrics_dict()
        assert metrics["mode"] == "federation_vs_global"
        assert metrics["delta"]["p99_jct"] == (
            fed.aggregate.p99_jct - glob.p99_jct
        )
        assert "== delta (federation - global) ==" in comparison.report()
