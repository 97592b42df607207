"""Golden traces of the simulators: four fixed-seed runs, byte for byte.

Each trace pins the *entire observable surface* of its run: job
outcomes, executed schedules, the ordered fault-event log, the ordered
telemetry event stream (wall-clock fields stripped) and the end-of-run
metric snapshot, so any kernel edit that reorders events — even two
events at the same simulated instant — fails loudly.

* ``fault_free`` / ``faulty`` — a closed batch through
  ``OnlineSimulator.run``;
* ``streaming_bounded`` — the open system through
  ``StreamingSimulator.run``: bounded admission that queues *and* sheds,
  an infeasible arrival, a horizon cut-off, faults;
* ``federation_4shard`` — ``FederatedStreamingSimulator.run`` over four
  shards with bounded per-shard admission, ``steal_threshold=1`` and a
  permanent crash on shard 0 that strands never-started jobs (backlog
  steals, admitted steals and a rescue all occur).
"""

from __future__ import annotations

from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.dag.graph import TaskGraph
from repro.dag.task import Task
from repro.faults import (
    FaultPlan, MachineCrash, RetryPolicy, RuntimeNoise, StragglerModel, TransientFaults
)
from repro.federation import FederatedStreamingSimulator, ShardSpec
from repro.online import (
    ArrivingJob, OnlineSimulator, cp_ranker, sjf_ranker, verify_execution
)
from repro.schedulers import compose_scheduler
from repro.streaming import AdmissionConfig, StreamingSimulator, TraceArrivals
from repro.telemetry import TelemetryConfig, session
from tests.golden import expected

LAYOUT = "indent"
INDENT = 2
CASES = {
    "fault_free": ("online_golden_fault_free.json",),
    "faulty": ("online_golden_faulty.json",),
    "streaming_bounded": ("streaming_golden_bounded.json",),
    "federation_4shard": ("federation_golden_4shard.json",),
}

CAPACITIES = (10, 10)
SHARD_CAPACITIES = (5, 5)


def golden_stream():
    """Six 8-task layered DAGs arriving every 3 slots (fixed seeds)."""
    workload = WorkloadConfig(
        num_tasks=8, max_runtime=6, max_demand=4, runtime_mean=3.0, demand_mean=2.0
    )
    return [
        ArrivingJob(3 * i, random_layered_dag(workload, seed=100 + i))
        for i in range(6)
    ]


def golden_faults():
    """Two staggered recoverable crashes + transients/stragglers/noise."""
    return FaultPlan(
        crashes=(
            MachineCrash(0, 6, (4, 4), recover_at=18),
            MachineCrash(1, 30, (3, 3), recover_at=44),
        ),
        transient=TransientFaults(0.15),
        straggler=StragglerModel(0.1, slowdown=2.0),
        noise=RuntimeNoise(kind="lognormal", scale=0.2),
        retry=RetryPolicy(max_attempts=4, backoff_base=2, backoff_cap=8),
        seed=13,
    )


def golden_rescheduler():
    """Deterministic HEFT replanner with a CP fallback (no wall budget)."""
    env_config = EnvConfig(cluster=ClusterConfig(capacities=CAPACITIES, horizon=8))
    return compose_scheduler("heft", env_config, reschedule=True, fallback="cp")


def open_stream():
    """The open-system stream both open goldens replay.

    Fourteen 6-task layered DAGs in bursts of three (one of them
    replaced by a job no (5, 5) shard and no (10, 10) cluster can run),
    a same-instant burst of five jobs whose first task needs (4, 4) —
    more than shard 0 keeps after its crash — and two stragglers past
    every horizon used below.
    """
    workload = WorkloadConfig(
        num_tasks=6, max_runtime=6, max_demand=4, runtime_mean=3.0, demand_mean=2.0
    )
    jobs = [
        ArrivingJob(i // 3, random_layered_dag(workload, seed=200 + i))
        for i in range(14)
    ]
    jobs[5] = ArrivingJob(1, TaskGraph([Task(0, 2, (11, 1))]))
    wide = TaskGraph([Task(0, 3, (4, 4)), Task(1, 2, (1, 1))], [(0, 1)])
    jobs += [ArrivingJob(42, wide) for _ in range(5)]
    jobs += [
        ArrivingJob(70 + i, random_layered_dag(workload, seed=300 + i))
        for i in range(2)
    ]
    return jobs


def streaming_faults():
    """A recoverable crash, transients, and a late permanent crash.

    The permanent loss at t=44 leaves (3, 3): the wide jobs then in the
    system can never finish and are failed loudly once nothing else can
    run, first the admitted ones and then those released from the
    backlog.
    """
    return FaultPlan(
        crashes=(
            MachineCrash(0, 8, (4, 4), recover_at=20),
            MachineCrash(1, 44, (7, 7), recover_at=None),
        ),
        transient=TransientFaults(0.15),
        retry=RetryPolicy(max_attempts=4, backoff_base=1, backoff_cap=4),
        seed=7,
    )


def federation_specs():
    """Four (5, 5) shards, bounded admission, per-shard fault domains.

    Shard 0 permanently loses (3, 3) at t=40, while idle: the wide jobs
    routed to it afterwards can never start there, so the stealer takes
    one as an *admitted* steal and the last one is a *rescue*.  Shard 2
    has a recoverable crash and transient failures of its own.
    """
    admission = AdmissionConfig(max_concurrent=2, max_queue=1)
    plans = {
        0: FaultPlan(crashes=(MachineCrash(0, 40, (3, 3), recover_at=None),), seed=3),
        2: FaultPlan(
            crashes=(MachineCrash(0, 10, (2, 2), recover_at=20),),
            transient=TransientFaults(0.15),
            retry=RetryPolicy(max_attempts=4, backoff_base=1, backoff_cap=4),
            seed=4,
        ),
    }
    rankers = (sjf_ranker, sjf_ranker, cp_ranker, sjf_ranker)
    return [
        ShardSpec(SHARD_CAPACITIES, rankers[k], admission=admission, faults=plans.get(k))
        for k in range(4)
    ]


def _event_row(event):
    """One telemetry event, stripped of wall-clock fields."""
    row = {"kind": event.kind, "name": event.name, "depth": event.depth}
    for key in ("parent", "step", "value"):
        if getattr(event, key) is not None:
            row[key] = getattr(event, key)
    if event.attrs:
        row["attrs"] = dict(event.attrs)
    return row


OUTCOME_FIELDS = (
    "job_index", "arrival_time", "completion_time", "num_tasks", "failed",
    "retries", "transient_failures", "crash_kills",
)


def _result_payload(result):
    return {
        "makespan": result.makespan,
        "mean_utilization": list(result.mean_utilization),
        "nominal_utilization": list(
            getattr(result, "nominal_utilization", result.mean_utilization)
        ),
        "crashes": result.crashes,
        "recoveries": result.recoveries,
        "total_retries": result.total_retries,
        "outcomes": [
            {key: getattr(outcome, key) for key in OUTCOME_FIELDS}
            for outcome in result.outcomes
        ],
        "fault_events": [
            [e.time, e.kind, e.job, e.task, e.attempt, e.detail]
            for e in result.fault_events
        ],
        "executed": [
            {
                "scheduler": schedule.scheduler,
                "placements": [
                    [p.task_id, p.start, p.finish] for p in schedule.placements
                ],
            }
            for schedule in result.executed
        ],
    }


def _streaming_payload(result):
    """Everything a ``StreamingResult`` carries, plus its metrics export."""
    return {
        "online": _result_payload(result.online),
        "queueing_delays": list(result.queueing_delays),
        "rejected": [[r.index, r.arrival_time, r.reason] for r in result.rejected],
        "in_system": [list(point) for point in result.in_system],
        "arrivals": result.arrivals,
        "start_time": result.start_time,
        "horizon_cutoff": result.horizon_cutoff,
        "metrics_dict": result.metrics_dict(),
    }


SHARD_FIELDS = ("shard_id", "routed", "stolen_in", "stolen_out")


def _federation_payload(result):
    return {
        "aggregate": _streaming_payload(result.aggregate),
        "shards": [
            {
                **{key: getattr(report, key) for key in SHARD_FIELDS},
                "capacities": list(report.capacities),
                "result": _streaming_payload(report.result),
            }
            for report in result.shards
        ],
        "steals": [
            [s.time, s.job_index, s.from_shard, s.to_shard, s.source]
            for s in result.steals
        ],
        "router": result.router,
        "steal_threshold": result.steal_threshold,
        "metrics_dict": result.metrics_dict(),
    }


def _metrics_payload(tm):
    jct = tm.metrics.histogram("online.jct")
    return {
        "jct_count": jct.count,
        "jct_mean": jct.mean,
        "jct_max": jct.max,
        "active_jobs_max": tm.metrics.gauge("online.active_jobs").max,
        "ready_tasks_max": tm.metrics.gauge("online.ready_tasks").max,
    }


def _run(case, jobs):
    """The result payload of the case's run on ``jobs``."""
    cluster = ClusterConfig(capacities=CAPACITIES, horizon=8)
    if case == "fault_free":
        return _result_payload(OnlineSimulator(cluster).run(jobs, cp_ranker))
    if case == "faulty":
        result = OnlineSimulator(cluster).run(
            jobs, cp_ranker, faults=golden_faults(), rescheduler=golden_rescheduler()
        )
        return _result_payload(result)
    arrivals = TraceArrivals(jobs)
    if case == "streaming_bounded":
        result = StreamingSimulator(cluster).run(
            arrivals,
            sjf_ranker,
            admission=AdmissionConfig(max_concurrent=3, max_queue=2),
            horizon=50,
            faults=streaming_faults(),
        )
        return _streaming_payload(result)
    federation = FederatedStreamingSimulator(
        federation_specs(), router="least-load", steal_threshold=1
    )
    return _federation_payload(federation.run(arrivals, horizon=50))


def compute(case):
    """Run one scenario under a fresh telemetry session."""
    jobs = golden_stream() if case in ("fault_free", "faulty") else open_stream()
    with session(TelemetryConfig(enabled=True, max_events=100_000)) as tm:
        result = _run(case, jobs)
        events = [_event_row(e) for e in tm.events()]
        metrics = _metrics_payload(tm)
    capacities = SHARD_CAPACITIES if case == "federation_4shard" else CAPACITIES
    return {
        "scenario": case,
        "capacities": list(capacities),
        "result": result,
        "telemetry_events": events,
        "metrics": metrics,
    }


def check_faulty_golden_exercises_every_incident_kind():
    result = expected("sim", "faulty")["result"]
    kinds = {row[1] for row in result["fault_events"]}
    assert {"crash", "recovery", "task_failure", "retry"} <= kinds
    assert result["crashes"] == 2
    assert result["recoveries"] == 2


def check_open_goldens_exercise_every_open_system_path():
    """The open-system goldens only pin what their scenarios reach."""
    streaming = expected("sim", "streaming_bounded")
    names = {e["name"] for e in streaming["telemetry_events"]}
    assert {
        "streaming.admit",
        "streaming.queue",
        "streaming.reject",
        "streaming.horizon_cutoff",
        "fault.job_failed",
    } <= names
    reasons = {row[2] for row in streaming["result"]["rejected"]}
    assert {"backpressure", "horizon"} < reasons  # plus the infeasible job
    assert max(streaming["result"]["queueing_delays"]) > 0

    federation = expected("sim", "federation_4shard")
    names = {e["name"] for e in federation["telemetry_events"]}
    assert {
        "federation.route",
        "federation.steal",
        "federation.reject",
        "federation.horizon_cutoff",
        "streaming.queue",
        "streaming.reject",
    } <= names
    sources = {row[4] for row in federation["result"]["steals"]}
    assert sources == {"backlog", "admitted", "rescue"}


def check_closed_batches_are_verifier_clean():
    """Executed schedules of both closed batches pass the invariant verifier."""
    stream = golden_stream()
    simulator = OnlineSimulator(ClusterConfig(capacities=CAPACITIES, horizon=8))
    for faults, rescheduler in ((None, None), (golden_faults(), golden_rescheduler())):
        result = simulator.run(stream, cp_ranker, faults=faults, rescheduler=rescheduler)
        for report in verify_execution(result, stream, CAPACITIES):
            assert report is None or not report.violations
