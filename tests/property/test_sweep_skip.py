"""A shard that saw no event since its last dispatch round is not swept.

:meth:`PolicyLayer.dispatch_round` returns at once unless
:attr:`ExecutionLayer.changed` is set.  The reference here is the same
run with every shard swept at every settled instant (the mark forced on
before each round, patched in for the reference run only): under
arbitrary fault plans, arrival streams, admission limits, horizons,
rankers and with or without a rescheduler, both runs must export the
same metrics, outcomes, executed schedules, fault events and steals,
byte for byte.

The runs use a small step cap: a shard that misses a change can wedge
a run (work that never starts), and the cap turns that into a failure
within seconds instead of a run that never ends.
"""

import json
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.dag.graph import TaskGraph
from repro.dag.task import Task
from repro.faults import (
    FaultPlan, MachineCrash, RetryPolicy, StragglerModel, TransientFaults,
    random_crash_plan,
)
from repro.federation import FederatedStreamingSimulator, ShardSpec
from repro.online import (
    ArrivingJob, OnlineSimulator, cp_ranker, fifo_ranker, sjf_ranker, tetris_ranker
)
from repro.online.policy import PolicyLayer
from repro.schedulers import compose_scheduler
from repro.streaming import AdmissionConfig, StreamingSimulator, TraceArrivals
from tests.golden.sim import _federation_payload, _result_payload, _streaming_payload

CAPACITIES = (10, 10)
SHARD_CAPACITIES = (5, 5)
CLUSTER = ClusterConfig(capacities=CAPACITIES, horizon=8)
MAX_STEPS = 5_000
RANKERS = {
    "fifo": fifo_ranker,
    "sjf": sjf_ranker,
    "cp": cp_ranker,
    "tetris": tetris_ranker,
}
WORKLOAD = WorkloadConfig(
    num_tasks=6, max_runtime=5, max_demand=4, runtime_mean=3.0, demand_mean=2.0
)

_sweep_on_change = PolicyLayer.dispatch_round


def _sweep_every_instant(policy):
    policy.execution.changed = True
    _sweep_on_change(policy)


@contextmanager
def sweeping_every_instant():
    with mock.patch.object(PolicyLayer, "dispatch_round", _sweep_every_instant):
        yield


def assert_same_run(run, payload):
    """``run()`` exports the same payload with and without the skip."""
    skipped = json.dumps(payload(run()), sort_keys=True)
    with sweeping_every_instant():
        swept = json.dumps(payload(run()), sort_keys=True)
    assert skipped == swept


def rescheduler(capacities):
    """HEFT replanner with CP fallback (stateful: one per run)."""
    cluster = ClusterConfig(capacities=capacities, horizon=8)
    return compose_scheduler(
        "heft", EnvConfig(cluster=cluster), reschedule=True, fallback="cp"
    )


@st.composite
def fault_plans(draw, capacities=CAPACITIES):
    """Short crash outages while work is in flight, transient faults
    (zero and positive backoff), stragglers."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    crashes = random_crash_plan(
        draw(st.integers(min_value=0, max_value=3)),
        capacities,
        horizon=draw(st.integers(min_value=2, max_value=30)),
        outage=draw(st.integers(min_value=1, max_value=12)),
        fraction=draw(st.sampled_from([0.2, 0.4, 0.6])),
        seed=seed,
    )
    return FaultPlan(
        crashes=crashes,
        transient=TransientFaults(draw(st.floats(min_value=0.0, max_value=0.4))),
        straggler=StragglerModel(
            draw(st.floats(min_value=0.0, max_value=0.3)), slowdown=2.0
        ),
        retry=RetryPolicy(
            max_attempts=3,
            backoff_base=draw(st.integers(min_value=0, max_value=2)),
            backoff_cap=4,
        ),
        seed=seed,
    )


@st.composite
def job_streams(draw, max_jobs=6):
    """Seeded 6-task layered DAGs; gaps of 0 make same-instant bursts."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    gaps = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=max_jobs)
    )
    jobs, arrival = [], 0
    for i, gap in enumerate(gaps):
        arrival += gap
        jobs.append(ArrivingJob(arrival, random_layered_dag(WORKLOAD, seed=seed + i)))
    return jobs


@given(
    plan=st.none() | fault_plans(),
    stream=job_streams(),
    ranker=st.sampled_from(sorted(RANKERS)),
    replan=st.booleans(),
)
@settings(max_examples=40, deadline=None, report_multiple_bugs=False)
def test_closed_batches_match_sweeping_every_instant(plan, stream, ranker, replan):
    def run():
        return OnlineSimulator(CLUSTER, max_steps=MAX_STEPS).run(
            stream,
            RANKERS[ranker],
            faults=plan,
            rescheduler=rescheduler(CAPACITIES) if replan else None,
        )

    assert_same_run(run, _result_payload)


@given(
    plan=st.none() | fault_plans(),
    stream=job_streams(max_jobs=8),
    ranker=st.sampled_from(sorted(RANKERS)),
    replan=st.booleans(),
    max_concurrent=st.integers(min_value=1, max_value=3),
    max_queue=st.integers(min_value=0, max_value=2),
    horizon=st.none() | st.integers(min_value=0, max_value=30),
)
@settings(max_examples=30, deadline=None, report_multiple_bugs=False)
def test_open_streams_match_sweeping_every_instant(
    plan, stream, ranker, replan, max_concurrent, max_queue, horizon
):
    def run():
        return StreamingSimulator(CLUSTER, max_steps=MAX_STEPS).run(
            TraceArrivals(stream),
            RANKERS[ranker],
            admission=AdmissionConfig(
                max_concurrent=max_concurrent, max_queue=max_queue
            ),
            horizon=horizon,
            faults=plan,
            rescheduler=rescheduler(CAPACITIES) if replan else None,
        )

    assert_same_run(run, _streaming_payload)


def federation_stream(stream):
    """``stream``, then a burst of jobs whose first task needs (4, 4):
    more than shard 0 keeps after its permanent crash, so the stealer
    has jobs to move away from it, by steal or by rescue."""
    wide = TaskGraph([Task(0, 3, (4, 4)), Task(1, 2, (1, 1))], [(0, 1)])
    last = stream[-1].arrival_time
    return stream + [ArrivingJob(max(last, 40) + 2, wide) for _ in range(5)]


@given(
    plan=st.none() | fault_plans(SHARD_CAPACITIES),
    stream=job_streams(max_jobs=8),
    rankers=st.lists(st.sampled_from(sorted(RANKERS)), min_size=4, max_size=4),
    replan=st.booleans(),
)
@settings(max_examples=25, deadline=None, report_multiple_bugs=False)
def test_federations_match_sweeping_every_instant(plan, stream, rankers, replan):
    jobs = federation_stream(stream)
    # Shard 0 permanently loses (3, 3); shard 2 runs the drawn plan.
    lost = FaultPlan(crashes=(MachineCrash(0, 40, (3, 3), recover_at=None),), seed=3)

    def run():
        # Shard 1 replans when ``replan`` is drawn.
        specs = [
            ShardSpec(
                SHARD_CAPACITIES,
                RANKERS[name],
                rescheduler=(
                    rescheduler(SHARD_CAPACITIES) if replan and k == 1 else None
                ),
                admission=AdmissionConfig(max_concurrent=2, max_queue=1),
                faults={0: lost, 2: plan}.get(k),
            )
            for k, name in enumerate(rankers)
        ]
        federation = FederatedStreamingSimulator(
            specs, router="least-load", steal_threshold=1, max_steps=MAX_STEPS
        )
        return federation.run(TraceArrivals(jobs), horizon=60)

    assert_same_run(run, _federation_payload)


def test_the_federation_scenario_rescues():
    """The federation property reaches every steal source, a rescue
    included, on a fixed stream."""
    stream = [
        ArrivingJob(i // 3, random_layered_dag(WORKLOAD, seed=200 + i))
        for i in range(12)
    ]
    lost = FaultPlan(crashes=(MachineCrash(0, 40, (3, 3), recover_at=None),), seed=3)
    specs = [
        ShardSpec(
            SHARD_CAPACITIES,
            sjf_ranker,
            admission=AdmissionConfig(max_concurrent=2, max_queue=1),
            faults=lost if k == 0 else None,
        )
        for k in range(4)
    ]
    result = FederatedStreamingSimulator(
        specs, router="least-load", steal_threshold=1, max_steps=MAX_STEPS
    ).run(TraceArrivals(federation_stream(stream)), horizon=60)
    assert "rescue" in {steal.source for steal in result.steals}
