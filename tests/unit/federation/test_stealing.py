"""Unit tests for cross-shard work stealing and crash rescue."""

from unittest import mock

import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag.graph import TaskGraph
from repro.dag.task import Task
from repro.faults.plan import FaultPlan, MachineCrash
from repro.federation import (
    FROM_ADMITTED,
    FROM_BACKLOG,
    RESCUE,
    FederatedStreamingSimulator,
    ShardSpec,
    WorkStealer,
)
from repro.online import fifo_ranker, sjf_ranker
from repro.online.results import ArrivingJob
from repro.schedulers import compose_scheduler
from repro.streaming import AdmissionConfig, TraceArrivals


class Pin0Router:
    """Test router: everything lands on the lowest-id feasible shard."""

    name = "pin0"

    def route(self, index, job, feasible, num_shards):
        return feasible[0]


def hog_job(arrival, runtime=6):
    """One task occupying a (3, 3) shard completely while it runs."""
    return ArrivingJob(arrival, TaskGraph([Task(0, runtime, (3, 3))]))


def stream(jobs):
    return TraceArrivals(list(jobs))


class TestBacklogStealing:
    def test_backlogged_jobs_migrate_to_idle_shard(self):
        # Everything routes to shard 0 with max_concurrent=1: jobs pile
        # into its backlog, the gap crosses the threshold, and the
        # stealer drains the backlog tail onto shard 1.
        specs = [
            ShardSpec((3, 3), fifo_ranker, admission=AdmissionConfig(max_concurrent=1)),
            ShardSpec((3, 3), fifo_ranker, admission=AdmissionConfig(max_concurrent=1)),
        ]
        result = FederatedStreamingSimulator(
            specs, router=Pin0Router(), steal_threshold=0
        ).run(stream(hog_job(0, runtime=4) for _ in range(4)))
        assert result.aggregate.online.completed_jobs == 4
        counts = result.steal_counts()
        assert counts[FROM_BACKLOG] >= 1
        assert all(s.from_shard == 0 and s.to_shard == 1 for s in result.steals)
        # The thief actually ran what it stole.
        thief = result.shards[1]
        assert thief.stolen_in == len(result.steals)
        assert thief.result.admitted >= 1

    def test_disabled_stealing_leaves_shards_alone(self):
        specs = [
            ShardSpec((3, 3), fifo_ranker),
            ShardSpec((3, 3), fifo_ranker),
        ]
        result = FederatedStreamingSimulator(
            specs, router=Pin0Router(), steal_threshold=None
        ).run(stream(hog_job(t * 2) for t in range(4)))
        assert not result.steals
        assert result.shards[1].result.admitted == 0
        assert result.steal_threshold == -1

    def test_threshold_gates_migration(self):
        # Gap of at most 2 never exceeds a threshold of 4.
        specs = [
            ShardSpec((3, 3), fifo_ranker, admission=AdmissionConfig(max_concurrent=1)),
            ShardSpec((3, 3), fifo_ranker, admission=AdmissionConfig(max_concurrent=1)),
        ]
        result = FederatedStreamingSimulator(
            specs, router=Pin0Router(), steal_threshold=4
        ).run(stream(hog_job(0) for _ in range(3)))
        assert not result.steals


class TestAdmittedStealing:
    def test_admitted_but_never_started_job_migrates(self):
        # Unbounded admission: both jobs are admitted on shard 0, but
        # its (3, 3) capacity runs only one hog at a time — the second
        # has no attempts and is fair game for the stealer.
        specs = [
            ShardSpec((3, 3), fifo_ranker),
            ShardSpec((3, 3), fifo_ranker),
        ]
        result = FederatedStreamingSimulator(
            specs, router=Pin0Router(), steal_threshold=1
        ).run(stream([hog_job(0), hog_job(0), hog_job(0)]))
        assert result.aggregate.online.completed_jobs == 3
        assert result.steal_counts()[FROM_ADMITTED] >= 1
        # Queueing delay semantics survive the migration: admission
        # happened at arrival on the donor, so delays stay zero.
        assert result.aggregate.queueing_delays == (0, 0, 0)

    def test_running_jobs_are_never_stolen(self):
        # A 1-task job that started is untouchable; with each shard able
        # to run its hog immediately there is nothing to steal.
        specs = [
            ShardSpec((3, 3), fifo_ranker),
            ShardSpec((3, 3), fifo_ranker),
        ]
        result = FederatedStreamingSimulator(
            specs, router="round-robin", steal_threshold=0
        ).run(stream([hog_job(0), hog_job(0)]))
        assert not result.steals


class TestRescue:
    def crash_specs(self):
        # Shard 0 permanently loses (2, 2) of (3, 3) at t=0: a (3, 3)
        # hog can never run there again.
        crash = MachineCrash(machine=0, at=0, capacity=(2, 2), recover_at=None)
        return [
            ShardSpec((3, 3), fifo_ranker, faults=FaultPlan(crashes=(crash,))),
            ShardSpec((3, 3), fifo_ranker),
        ]

    def test_rescue_moves_stranded_jobs_off_crashed_shard(self):
        result = FederatedStreamingSimulator(
            self.crash_specs(), router=Pin0Router(), steal_threshold=100
        ).run(stream([hog_job(0), hog_job(0)]))
        assert result.steal_counts()[RESCUE] >= 1
        assert result.aggregate.online.completed_jobs == 2
        assert result.aggregate.online.failed_jobs == 0

    def test_without_stealing_stranded_jobs_fail_loudly(self):
        result = FederatedStreamingSimulator(
            self.crash_specs(), router=Pin0Router()
        ).run(stream([hog_job(0), hog_job(0)]))
        assert result.aggregate.online.failed_jobs == 2
        assert result.aggregate.arrivals == 2
        # Failed, not lost: both jobs appear in the outcome record.
        assert len(result.aggregate.online.outcomes) == 2

    def test_crash_is_shard_local(self):
        # The other shard's capacity is untouched by shard 0's crash.
        result = FederatedStreamingSimulator(
            self.crash_specs(), router="round-robin", steal_threshold=None
        ).run(stream([hog_job(0), hog_job(0)]))
        reports = {r.shard_id: r for r in result.shards}
        assert reports[0].result.online.crashes == 1
        assert reports[1].result.online.crashes == 0
        assert reports[1].result.online.completed_jobs == 1


class CountingRescheduler:
    """Test rescheduler: a real replanner on a (3, 3) shard that counts
    its plans."""

    def __init__(self, spec):
        env_config = EnvConfig(cluster=ClusterConfig(capacities=(3, 3), horizon=8))
        self.inner = compose_scheduler(spec, env_config, reschedule=True)
        self.name = self.inner.name
        self.plans = 0

    def plan(self, request):
        self.plans += 1
        return self.inner.plan(request)


@pytest.mark.parametrize("thief_replans", [False, True])
def test_a_stolen_job_leaves_its_donors_plan_and_keys_behind(thief_replans):
    # Shard 0 replans with HEFT and orders by FIFO; every job lands there
    # and is planned on admission.  The job stolen to shard 1 is rebuilt
    # there with no plan ranks and no cached keys: shard 1 either replans
    # it with its own rescheduler or dispatches it by its own ranker (SJF).
    chain = TaskGraph([Task(0, 2, (3, 3)), Task(1, 3, (3, 3))], [(0, 1)])
    donor_planner = CountingRescheduler("heft")
    thief_planner = CountingRescheduler("cp") if thief_replans else None
    specs = [
        ShardSpec((3, 3), fifo_ranker, rescheduler=donor_planner),
        ShardSpec((3, 3), sjf_ranker, rescheduler=thief_planner),
    ]
    arrived = []
    migrate = WorkStealer._migrate_admitted

    def watched_migrate(stealer, donor, thief, job, now, source):
        assert job.plan_rank is not None  # the donor planned it
        plans = thief_planner.plans if thief_replans else 0
        migrate(stealer, donor, thief, job, now, source)
        moved = thief.execution.active[job.index]
        assert moved is not job and moved.static_keys == {}
        if thief_replans:
            assert thief_planner.plans == plans + 1
            assert sorted(moved.plan_rank) == [0, 1]
            assert moved.plan_rank is not job.plan_rank
        else:
            assert moved.plan_rank is None
        arrived.append(moved)

    with mock.patch.object(WorkStealer, "_migrate_admitted", watched_migrate):
        result = FederatedStreamingSimulator(
            specs, router=Pin0Router(), steal_threshold=1
        ).run(stream(ArrivingJob(0, chain) for _ in range(3)))
    assert result.aggregate.online.completed_jobs == 3
    assert arrived and result.shards[1].stolen_in == len(arrived)
    for moved in arrived:
        assert moved.executed.keys() == {0, 1}
        if thief_replans:
            assert moved.static_keys == {}
        else:  # ordered by the thief's SJF keys, never by a plan
            assert moved.plan_rank is None
            assert moved.static_keys == {
                tid: (1, chain.task(tid).runtime, moved.index, tid) for tid in (0, 1)
            }
