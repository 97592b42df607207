"""Old-vs-new equivalence: the kernel-layered engine vs the frozen loop.

:mod:`tests.property._legacy_online` is the pre-kernel monolithic event
loop, kept verbatim as an oracle.  Under arbitrary seeded fault plans,
arrival streams, rankers, and with/without dynamic rescheduling, the
re-layered :class:`~repro.online.OnlineSimulator` must realize the
*identical* run: outcomes, makespan, the ordered fault-event log,
executed schedules, retry accounting — and its ``nominal_utilization``
must equal the legacy ``mean_utilization`` bit-for-bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.faults import (
    FaultPlan,
    RetryPolicy,
    RuntimeNoise,
    StragglerModel,
    TransientFaults,
    random_crash_plan,
)
from repro.online import (
    ArrivingJob,
    OnlineSimulator,
    cp_ranker,
    fifo_ranker,
    sjf_ranker,
    tetris_ranker,
)
from repro.schedulers import compose_scheduler
from tests.property._legacy_online import legacy_run

CAPACITIES = (10, 10)
CLUSTER = ClusterConfig(capacities=CAPACITIES, horizon=8)
RANKERS = {
    "fifo": fifo_ranker,
    "sjf": sjf_ranker,
    "cp": cp_ranker,
    "tetris": tetris_ranker,
}


@st.composite
def fault_plans(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    transient = draw(st.floats(min_value=0.0, max_value=0.4))
    straggle = draw(st.floats(min_value=0.0, max_value=0.3))
    noise = draw(st.floats(min_value=0.0, max_value=0.5))
    kind = draw(st.sampled_from(["lognormal", "uniform"]))
    n_crashes = draw(st.integers(min_value=0, max_value=2))
    # backoff_base=0 exercises zero-delay retries, the trickiest
    # same-instant case of the old loop (released only after a dispatch
    # round at the failure instant).
    backoff_base = draw(st.integers(min_value=0, max_value=2))
    crashes = random_crash_plan(
        n_crashes, CAPACITIES, horizon=60, fraction=0.3, seed=seed
    )
    return FaultPlan(
        crashes=crashes,
        transient=TransientFaults(transient),
        straggler=StragglerModel(straggle, slowdown=2.0),
        noise=RuntimeNoise(kind=kind, scale=noise) if noise > 0 else None,
        retry=RetryPolicy(max_attempts=3, backoff_base=backoff_base, backoff_cap=4),
        seed=seed,
    )


@st.composite
def job_streams(draw):
    n_jobs = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    gap = draw(st.integers(min_value=0, max_value=6))
    workload = WorkloadConfig(
        num_tasks=6, max_runtime=5, max_demand=4, runtime_mean=3.0, demand_mean=2.0
    )
    return [
        ArrivingJob(gap * i, random_layered_dag(workload, seed=seed + i))
        for i in range(n_jobs)
    ]


def fresh_rescheduler():
    """HEFT replanner with CP fallback (stateful: one per run)."""
    return compose_scheduler(
        "heft", EnvConfig(cluster=CLUSTER), reschedule=True, fallback="cp"
    )


def assert_equivalent(new, old):
    assert new.outcomes == old.outcomes
    assert new.makespan == old.makespan
    assert new.fault_events == old.fault_events
    assert new.executed == old.executed
    assert new.crashes == old.crashes
    assert new.recoveries == old.recoveries
    assert new.total_retries == old.total_retries
    # The historical utilization definition survives, bit-for-bit.
    assert new.nominal_utilization == old.mean_utilization


@given(
    plan=fault_plans(),
    stream=job_streams(),
    ranker_name=st.sampled_from(sorted(RANKERS)),
)
@settings(max_examples=40, deadline=None)
def test_faulty_runs_bit_identical(plan, stream, ranker_name):
    ranker = RANKERS[ranker_name]
    new = OnlineSimulator(CLUSTER).run(stream, ranker, faults=plan)
    old = legacy_run(stream, ranker, cluster=CLUSTER, faults=plan)
    assert_equivalent(new, old)


@given(stream=job_streams(), ranker_name=st.sampled_from(sorted(RANKERS)))
@settings(max_examples=25, deadline=None)
def test_fault_free_runs_bit_identical(stream, ranker_name):
    ranker = RANKERS[ranker_name]
    new = OnlineSimulator(CLUSTER).run(stream, ranker)
    old = legacy_run(stream, ranker, cluster=CLUSTER)
    assert_equivalent(new, old)
    # Fault-free, effective == nominal utilization exactly.
    assert new.mean_utilization == new.nominal_utilization


@given(plan=fault_plans(), stream=job_streams())
@settings(max_examples=15, deadline=None)
def test_rescheduled_faulty_runs_bit_identical(plan, stream):
    new = OnlineSimulator(CLUSTER).run(
        stream, fifo_ranker, faults=plan, rescheduler=fresh_rescheduler()
    )
    old = legacy_run(
        stream,
        fifo_ranker,
        cluster=CLUSTER,
        faults=plan,
        rescheduler=fresh_rescheduler(),
    )
    assert_equivalent(new, old)
