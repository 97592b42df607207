"""Federation properties.

The load-bearing one is 1-shard equivalence: a federation of exactly
one shard (any router — routing over a singleton is trivial) must
reproduce :class:`~repro.streaming.StreamingSimulator` *exactly* — the
aggregate :class:`~repro.streaming.results.StreamingResult` compares
equal, metrics dict included — across rankers, seeds, admission limits,
horizons and fault plans.  That pins the federation as a strict
superset of the streaming engine: routing, the shard kernel namespace,
the ledger split, and the aggregate assembly must all be identities
when there is nothing to federate.

The rest are multi-shard invariants: job conservation across shards
(every arrival is admitted somewhere or reported rejected, even when
the work stealer migrates it mid-flight — no silent loss, no double
count), steal-record consistency, determinism of the federated
metrics surface, and the jobs-in-system count the engine samples.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.faults import (
    FaultPlan,
    MachineCrash,
    RetryPolicy,
    TransientFaults,
    random_crash_plan,
)
from repro.federation import FederatedStreamingSimulator, ShardSpec
from repro.online import ArrivingJob, resolve_ranker
from repro.online.engine import ShardedEngine
from repro.streaming import (
    AdmissionConfig,
    PoissonProcess,
    StreamingSimulator,
    TraceArrivals,
    layered_job_factory,
    streaming_workload,
)

CAPACITIES = (10, 10)
CLUSTER = ClusterConfig(capacities=CAPACITIES, horizon=8)
RANKER_NAMES = ("cp", "fifo", "sjf", "tetris")
ROUTERS = ("round-robin", "least-load", "hash:salt=3", "affinity")


@st.composite
def job_streams(draw, max_gap=6):
    n_jobs = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    gap = draw(st.integers(min_value=0, max_value=max_gap))
    workload = WorkloadConfig(
        num_tasks=6, max_runtime=5, max_demand=4, runtime_mean=3.0, demand_mean=2.0
    )
    return [
        ArrivingJob(gap * i, random_layered_dag(workload, seed=seed + i))
        for i in range(n_jobs)
    ]


@st.composite
def fault_plans(draw, capacities=CAPACITIES):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    transient = draw(st.floats(min_value=0.0, max_value=0.3))
    n_crashes = draw(st.integers(min_value=0, max_value=2))
    crashes = random_crash_plan(
        n_crashes, capacities, horizon=60, fraction=0.3, seed=seed
    )
    return FaultPlan(
        crashes=crashes,
        transient=TransientFaults(transient),
        retry=RetryPolicy(max_attempts=3, backoff_base=1, backoff_cap=4),
        seed=seed,
    )


def poisson(seed, n=12, rate=0.5):
    return PoissonProcess(
        rate, n, layered_job_factory(streaming_workload(num_tasks=5)), seed=seed
    )


def assert_streaming_equivalent(federation, streaming):
    """The 1-shard aggregate equals the streaming result — not merely
    equivalent: same outcomes, delays, rejections, series, schedules."""
    assert federation.aggregate.online == streaming.online
    assert federation.aggregate == streaming
    assert federation.aggregate.metrics_dict() == streaming.metrics_dict()
    assert not federation.steals


@given(
    stream=job_streams(),
    ranker_name=st.sampled_from(RANKER_NAMES),
    router=st.sampled_from(ROUTERS),
)
@settings(max_examples=25, deadline=None)
def test_single_shard_reproduces_streaming_simulator(stream, ranker_name, router):
    """1 shard + any router == StreamingSimulator, across rankers."""
    ranker = resolve_ranker(ranker_name)
    streaming = StreamingSimulator(CLUSTER).run(TraceArrivals(stream), ranker)
    federation = FederatedStreamingSimulator(
        [ShardSpec(CAPACITIES, ranker)], router=router
    ).run(TraceArrivals(stream))
    assert_streaming_equivalent(federation, streaming)


@given(plan=fault_plans(), stream=job_streams())
@settings(max_examples=15, deadline=None)
def test_single_shard_equivalence_under_faults(plan, stream):
    ranker = resolve_ranker("sjf")
    streaming = StreamingSimulator(CLUSTER).run(
        TraceArrivals(stream), ranker, faults=plan
    )
    federation = FederatedStreamingSimulator(
        [ShardSpec(CAPACITIES, ranker, faults=plan)], router="round-robin"
    ).run(TraceArrivals(stream))
    assert_streaming_equivalent(federation, streaming)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    max_concurrent=st.integers(min_value=1, max_value=4),
    max_queue=st.none() | st.integers(min_value=0, max_value=3),
    horizon=st.none() | st.integers(min_value=5, max_value=40),
)
@settings(max_examples=20, deadline=None)
def test_single_shard_equivalence_with_admission_and_horizon(
    seed, max_concurrent, max_queue, horizon
):
    ranker = resolve_ranker("sjf")
    admission = AdmissionConfig(max_concurrent=max_concurrent, max_queue=max_queue)
    streaming = StreamingSimulator(CLUSTER).run(
        poisson(seed), ranker, admission=admission, horizon=horizon
    )
    federation = FederatedStreamingSimulator(
        [ShardSpec(CAPACITIES, ranker, admission=admission)],
        router="least-load",
    ).run(poisson(seed), horizon=horizon)
    assert_streaming_equivalent(federation, streaming)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.integers(min_value=2, max_value=4),
    router=st.sampled_from(ROUTERS),
    threshold=st.none() | st.integers(min_value=0, max_value=3),
    max_concurrent=st.none() | st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_sharded_run_conserves_jobs(seed, shards, router, threshold, max_concurrent):
    """arrivals == admitted + rejected across shards, steals included."""
    admission = (
        AdmissionConfig(max_concurrent=max_concurrent, max_queue=2)
        if max_concurrent is not None
        else None
    )
    specs = [ShardSpec((4, 4), resolve_ranker("fifo"), admission=admission)
             for _ in range(shards)]
    result = FederatedStreamingSimulator(
        specs, router=router, steal_threshold=threshold
    ).run(poisson(seed, n=15, rate=0.8))
    aggregate = result.aggregate
    assert aggregate.arrivals == 15
    assert aggregate.admitted + len(aggregate.rejected) == aggregate.arrivals
    # No double count: every outcome and rejection is a distinct arrival
    # index, even for jobs that migrated between shards mid-flight.
    outcome_indices = [o.job_index for o in aggregate.online.outcomes]
    rejected_indices = [r.index for r in aggregate.rejected]
    seen = outcome_indices + rejected_indices
    assert len(seen) == len(set(seen)) == 15
    # Per-shard admissions tie out with routing and stealing flows.
    for report in result.shards:
        assert report.result.admitted + len(report.result.rejected) <= 15
    assert sum(r.result.admitted for r in result.shards) == aggregate.admitted
    # Steal records reference real shards and jobs that ended somewhere.
    for steal in result.steals:
        assert steal.from_shard != steal.to_shard
        assert 0 <= steal.from_shard < shards and 0 <= steal.to_shard < shards
        assert steal.job_index in set(seen)


@given(plan_seed=st.integers(min_value=0, max_value=2**31 - 1),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_sharded_run_with_faults_conserves_jobs(plan_seed, seed):
    """Per-shard fault domains never lose a job: each arrival completes,
    fails loudly, or is rejected — even with rescue migrations."""
    crashes = random_crash_plan(1, (5, 5), horizon=40, fraction=0.5, seed=plan_seed)
    plan = FaultPlan(crashes=crashes, seed=plan_seed)
    specs = [
        ShardSpec((5, 5), resolve_ranker("sjf"), faults=plan),
        ShardSpec((5, 5), resolve_ranker("sjf")),
    ]
    result = FederatedStreamingSimulator(
        specs, router="round-robin", steal_threshold=1
    ).run(poisson(seed, n=12, rate=0.6))
    aggregate = result.aggregate
    assert aggregate.arrivals == 12
    assert aggregate.admitted + len(aggregate.rejected) == 12
    indices = sorted(
        [o.job_index for o in aggregate.online.outcomes]
        + [r.index for r in aggregate.rejected]
    )
    assert indices == list(range(12))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.integers(min_value=1, max_value=3),
    router=st.sampled_from(ROUTERS),
)
@settings(max_examples=15, deadline=None)
def test_federated_run_is_deterministic(seed, shards, router):
    def run():
        specs = [ShardSpec((4, 4), resolve_ranker("sjf")) for _ in range(shards)]
        return FederatedStreamingSimulator(
            specs, router=router, steal_threshold=1
        ).run(poisson(seed))

    a, b = run(), run()
    assert a.aggregate == b.aggregate
    assert a.steals == b.steals
    assert a.metrics_dict() == b.metrics_dict()


@st.composite
def lossy_plans(draw):
    """Transient failures that exhaust a two-attempt budget, and maybe a
    permanent crash: plans under which jobs are abandoned."""
    crash_at = draw(st.none() | st.integers(min_value=0, max_value=30))
    return FaultPlan(
        crashes=()
        if crash_at is None
        else (MachineCrash(0, crash_at, (2, 2), recover_at=None),),
        transient=TransientFaults(draw(st.floats(min_value=0.2, max_value=0.6))),
        retry=RetryPolicy(max_attempts=2, backoff_base=1, backoff_cap=2),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


def sampled_in_system(run_once):
    """Run ``run_once()``; return, for every jobs-in-system sample the
    engine took, the count it sampled and the sum of its shards' loads
    (active plus backlogged jobs) at that instant."""
    pairs = []
    run = ShardedEngine.run

    def checked_run(engine, *args, **kwargs):
        sample = engine.ledger.sample_in_system

        def checked(at, count):
            pairs.append((count, sum(shard.load() for shard in engine.shards)))
            sample(at, count)

        engine.ledger.sample_in_system = checked
        return run(engine, *args, **kwargs)

    with mock.patch.object(ShardedEngine, "run", checked_run):
        run_once()
    return pairs


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    plan=st.none() | lossy_plans(),
    shards=st.integers(min_value=2, max_value=4),
    router=st.sampled_from(ROUTERS),
    threshold=st.integers(min_value=0, max_value=2),
    max_concurrent=st.none() | st.integers(min_value=1, max_value=3),
    horizon=st.none() | st.integers(min_value=5, max_value=40),
)
@settings(max_examples=25, deadline=None)
def test_sampled_jobs_in_system_is_the_sum_of_shard_loads(
    seed, plan, shards, router, threshold, max_concurrent, horizon
):
    """The count the engine keeps up to date at admit, queue, finish,
    fail and steal equals, at every settled instant, what summing every
    shard's load would give: in a stream and in a stealing federation,
    with jobs queued, shed, cut off, abandoned and migrated."""
    admission = (
        AdmissionConfig(max_concurrent=max_concurrent, max_queue=2)
        if max_concurrent is not None
        else None
    )
    ranker = resolve_ranker("sjf")
    streamed = sampled_in_system(
        lambda: StreamingSimulator(ClusterConfig(capacities=(5, 5))).run(
            poisson(seed, n=15, rate=0.8),
            ranker,
            admission=admission,
            horizon=horizon,
            faults=plan,
        )
    )
    specs = [
        ShardSpec((5, 5), ranker, admission=admission, faults=plan if k == 0 else None)
        for k in range(shards)
    ]
    federated = sampled_in_system(
        lambda: FederatedStreamingSimulator(
            specs, router=router, steal_threshold=threshold
        ).run(poisson(seed, n=15, rate=0.8), horizon=horizon)
    )
    for pairs in (streamed, federated):
        assert pairs
        assert all(count == load for count, load in pairs)
