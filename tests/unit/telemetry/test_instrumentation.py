"""Integration tests: the instrumented layers actually report.

Each test activates a session (the one way to turn telemetry on) and
checks that the search / training / serving paths
emit the spans, counters and series DESIGN.md Sec. 9 documents — and
that with telemetry off they emit nothing.
"""

from dataclasses import replace

import pytest

from repro.config import (
    ClusterConfig,
    EnvConfig,
    MctsConfig,
    NetworkConfig,
    TrainingConfig,
    WorkloadConfig,
)
from repro.dag import independent_tasks_dag
from repro.dag.generators import chain_dag, random_layered_dag
from repro.env.observation import observation_size
from repro.mcts.parallel import RootParallelMcts
from repro.mcts.search import MctsScheduler
from repro.online import ArrivingJob, OnlineSimulator, fifo_ranker, sjf_ranker
from repro.rl import ImitationTrainer, PolicyNetwork, ReinforceTrainer
from repro.schedulers.base import ScheduleRequest
from repro.telemetry import TelemetryConfig as TC
from repro.telemetry import load_trace, session, summarize


@pytest.fixture(autouse=True)
def _restore_global_pipeline():
    with session(TC()):
        yield


@pytest.fixture
def graph():
    workload = WorkloadConfig(
        num_tasks=8, max_runtime=4, max_demand=8,
        runtime_mean=2, runtime_std=1, demand_mean=5, demand_std=2,
    )
    return random_layered_dag(workload, seed=3)


MCTS = MctsConfig(initial_budget=15, min_budget=5)


class TestMctsInstrumentation:
    def test_search_emits_spans_and_counters(self, graph):
        with session(TC(enabled=True)) as tm:
            MctsScheduler(MCTS, seed=0).plan(ScheduleRequest(graph))
            events = tm.events()
        summary = summarize(events)
        assert summary.spans["mcts.schedule"].count == 1
        assert summary.spans["mcts.decision"].count >= 1
        assert tm.metrics.counter("mcts.searches").total == 1
        assert tm.metrics.counter("mcts.iterations").total > 0
        assert tm.metrics.counter("mcts.rollouts").total > 0

    def test_decision_spans_carry_tree_shape(self, graph):
        with session(TC(enabled=True)) as tm:
            MctsScheduler(MCTS, seed=0).plan(ScheduleRequest(graph))
            decisions = [e for e in tm.events() if e.name == "mcts.decision"]
        for event in decisions:
            assert event.attrs["tree_nodes"] >= 1
            assert event.attrs["tree_depth"] >= 0
            assert "action" in event.attrs
            assert event.parent == "mcts.schedule"

    def test_telemetry_does_not_change_the_schedule(self, graph):
        baseline = MctsScheduler(MCTS, seed=0).plan(ScheduleRequest(graph))
        with session(TC(enabled=True)):
            traced = MctsScheduler(MCTS, seed=0).plan(ScheduleRequest(graph))
        assert traced.makespan == baseline.makespan
        assert [p.start for p in traced.placements] == [
            p.start for p in baseline.placements
        ]

    def test_parallel_search_reports_workers(self, graph):
        with session(TC(enabled=True)) as tm:
            RootParallelMcts(MCTS, workers=2, seed=0).plan(ScheduleRequest(graph))
            events = tm.events()
        workers = [e for e in tm.events() if e.name == "mcts.worker"]
        assert len(workers) == 2
        assert any(e.attrs["best"] for e in workers)
        assert summarize(events).spans["mcts.parallel_schedule"].count == 1

    def test_disabled_emits_nothing(self, graph):
        scheduler = MctsScheduler(MCTS, seed=0)
        scheduler.plan(ScheduleRequest(graph))  # global pipeline is the disabled no-op
        assert scheduler._tm_enabled is False


class TestEnvInstrumentation:
    def test_episode_counters_flushed_at_to_schedule(self, graph):
        with session(TC(enabled=True)) as tm:
            MctsScheduler(MCTS, seed=0).plan(ScheduleRequest(graph))
            assert tm.metrics.counter("env.episodes").total >= 1
            assert tm.metrics.counter("env.steps").total > 0
            assert tm.metrics.counter("env.clones").total > 0  # the tree walk
            episodes = [e for e in tm.events() if e.name == "env.episode"]
        assert episodes and episodes[-1].attrs["steps"] > 0
        assert "undos" not in episodes[-1].attrs

    @pytest.mark.parametrize("width", [1, 8])
    def test_search_environment_owns_its_clones(self, graph, width, monkeypatch):
        """Every copy a search makes — the root clone a descent replays
        its path on, one more per extra sibling — is counted on the
        search's environment, one per expanded leaf; only committed moves
        remain as its steps — in a sequential search and in waves alike."""
        from repro.env.scheduling_env import SchedulingEnv

        clones = []
        inner = SchedulingEnv.clone

        def counting(self):
            clones.append(self)
            return inner(self)

        monkeypatch.setattr(SchedulingEnv, "clone", counting)
        scheduler = MctsScheduler(replace(MCTS, rollout_batch=width), seed=0)
        with session(TC(enabled=True)) as tm:
            scheduler.plan(ScheduleRequest(graph))
            counter = tm.metrics.counter
            stats = scheduler.last_statistics
            assert counter("env.clones").total == len(clones) > 0
            assert stats.rollouts <= len(clones) <= stats.iterations
            assert counter("env.steps").total == stats.decisions


class TestTrainingInstrumentation:
    @pytest.fixture
    def env_config(self):
        return EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=6),
            max_ready=4,
        )

    @pytest.fixture
    def net(self, env_config):
        return PolicyNetwork(
            observation_size(env_config),
            NetworkConfig(hidden_sizes=(12, 6), max_ready=env_config.max_ready),
            seed=0,
        )

    @pytest.fixture
    def training(self):
        return TrainingConfig(
            num_examples=2,
            example_num_tasks=5,
            rollouts_per_example=3,
            supervised_epochs=2,
            batch_size=8,
            epochs=2,
        )

    @pytest.fixture
    def graphs(self):
        workload = WorkloadConfig(
            num_tasks=5, max_runtime=3, max_demand=8,
            runtime_mean=2, runtime_std=1, demand_mean=5, demand_std=2,
        )
        return [random_layered_dag(workload, seed=s) for s in range(2)]

    def test_reinforce_streams_training_curves(
        self, net, env_config, training, graphs
    ):
        with session(TC(enabled=True)) as tm:
            trainer = ReinforceTrainer(
                net, graphs, env_config, training, seed=0
            )
            history = trainer.train(epochs=2)
            series = tm.series_dict()
        for name in (
            "reinforce.loss",
            "reinforce.entropy",
            "reinforce.return",
            "reinforce.baseline",
        ):
            assert series[name].steps == [0, 1], name
        assert history[0].mean_loss == series["reinforce.loss"].values[0]
        assert series["reinforce.baseline"].values == [
            -stats.mean_makespan for stats in history
        ]

    def test_reinforce_log_every_as_telemetry_event(
        self, net, env_config, training, graphs, capsys
    ):
        with session(TC(enabled=True)) as tm:
            trainer = ReinforceTrainer(
                net, graphs, env_config, training, seed=0
            )
            trainer.train(epochs=1, log_every=1)
            logs = [e for e in tm.events() if e.kind == "log"]
        assert logs and logs[0].name == "reinforce.epoch"
        assert "mean makespan" in logs[0].attrs["message"]
        # The trainer writes the same line to stderr itself; stdout stays
        # clean.
        captured = capsys.readouterr()
        assert captured.err == logs[0].attrs["message"] + "\n"
        assert captured.out == ""

    def test_reinforce_log_every_falls_back_to_stderr(
        self, net, env_config, training, graphs, capsys
    ):
        trainer = ReinforceTrainer(net, graphs, env_config, training, seed=0)
        trainer.train(epochs=1, log_every=1)
        captured = capsys.readouterr()
        assert "mean makespan" in captured.err
        assert captured.out == ""

    def test_imitation_streams_loss_curve(
        self, net, env_config, training, graphs
    ):
        with session(TC(enabled=True)) as tm:
            losses = ImitationTrainer(
                net, env_config, training=training, seed=0
            ).fit(graphs)
            series = tm.series_dict()["imitation.loss"]
            spans = summarize(tm.events()).spans
        assert series.values == losses
        assert spans["imitation.fit"].count == 1


class TestOnlineInstrumentation:
    CLUSTER = ClusterConfig(capacities=(10, 10), horizon=8)

    @staticmethod
    def job(arrival, runtimes, demands=None):
        return ArrivingJob(
            arrival, independent_tasks_dag(runtimes, demands=demands)
        )

    def test_run_reports_jct_histogram_and_gauges(self):
        stream = [
            self.job(0, [2], demands=[(10, 10)]),
            self.job(0, [2], demands=[(10, 10)]),
        ]
        with session(TC(enabled=True)) as tm:
            result = OnlineSimulator(self.CLUSTER).run(stream, fifo_ranker)
            hist = tm.metrics.histogram("online.jct")
            assert hist.count == 2
            assert hist.mean == pytest.approx(result.mean_jct)
            assert hist.max == result.max_jct
            metrics = tm.metrics.all_metrics()
            assert metrics["online.utilization.r0"].value == pytest.approx(
                result.mean_utilization[0]
            )
            assert metrics["online.active_jobs"].max >= 1
            jobs = [e for e in tm.events() if e.name == "online.job"]
            spans = summarize(tm.events()).spans
        assert [e.attrs["jct"] for e in jobs] == [2, 4]
        assert spans["online.run"].count == 1

    def test_trace_is_complete_on_exit(self, tmp_path):
        # A simulator built before the session reports to the session
        # active when it runs, and the JSONL trace is whole once the
        # block exits.
        simulator = OnlineSimulator(self.CLUSTER)
        path = tmp_path / "online.jsonl"
        with session(TC(enabled=True, jsonl_path=str(path), capture_memory=False)):
            simulator.run([self.job(0, [2], demands=[(2, 2)])], fifo_ranker)
        trace = load_trace(path)
        assert summarize(trace.events).spans["online.run"].count == 1
        jct = [e for e in trace.events if e.name == "online.jct"]
        assert [e.attrs["count"] for e in jct] == [1]

    def test_equal_time_arrival_admitted_before_refill(self):
        # Job 0 is a chain 5 -> 3 filling the cluster; its first task
        # completes at t=5, exactly when job 1 arrives.  Documented
        # determinism: the arrival is admitted before the completion's
        # follow-up placements, so under SJF job 1's shorter task
        # (runtime 1) wins the freed capacity over job 0's second task
        # (runtime 3).  Were admission to happen after the refill, job 1
        # would wait until t=8 and finish at 9.
        stream = [
            ArrivingJob(0, chain_dag([5, 3], demands=[(10, 10), (10, 10)])),
            self.job(5, [1], demands=[(10, 10)]),
        ]
        result = OnlineSimulator(self.CLUSTER).run(stream, sjf_ranker)
        assert result.outcomes[1].completion_time == 6
        assert result.outcomes[1].jct == 1
        assert result.outcomes[0].completion_time == 9
