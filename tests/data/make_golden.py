"""Golden-trace scenarios for the simulators, and their regeneration.

The committed traces pin the *entire observable surface* of fixed-seed
runs: job outcomes, executed schedules, the ordered fault-event log, the
ordered telemetry event stream, and the end-of-run metric snapshot.  The
regression test asserts the serialized payload byte-for-byte, so any
kernel edit that reorders events — even two events at the same simulated
instant — fails loudly.

* ``online_golden_fault_free.json`` / ``online_golden_faulty.json`` — a
  closed batch through ``OnlineSimulator.run``;
* ``streaming_golden_bounded.json`` — the open system through
  ``StreamingSimulator.run``: bounded admission that queues *and* sheds,
  an infeasible arrival, a horizon cut-off, faults;
* ``federation_golden_4shard.json`` — ``FederatedStreamingSimulator.run``
  over four shards with bounded per-shard admission, ``steal_threshold=1``
  and a permanent crash on shard 0 that strands never-started jobs
  (backlog steals, admitted steals and a rescue all occur).

Regenerate (only when an event-order change is intentional and
documented) with::

    PYTHONPATH=src python tests/data/make_golden.py

This module is imported by the golden test so the test and the
regeneration script can never disagree on the serialization.
"""

from __future__ import annotations

import json
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent

CAPACITIES = (10, 10)

GOLDEN_FILES = {
    "fault_free": DATA_DIR / "online_golden_fault_free.json",
    "faulty": DATA_DIR / "online_golden_faulty.json",
    "streaming_bounded": DATA_DIR / "streaming_golden_bounded.json",
    "federation_4shard": DATA_DIR / "federation_golden_4shard.json",
}

SHARD_CAPACITIES = (5, 5)


def golden_stream():
    """Six 8-task layered DAGs arriving every 3 slots (fixed seeds)."""
    from repro.config import WorkloadConfig
    from repro.dag.generators import random_layered_dag
    from repro.online import ArrivingJob

    workload = WorkloadConfig(
        num_tasks=8,
        max_runtime=6,
        max_demand=4,
        runtime_mean=3.0,
        demand_mean=2.0,
    )
    return [
        ArrivingJob(3 * i, random_layered_dag(workload, seed=100 + i))
        for i in range(6)
    ]


def golden_faults():
    """Two staggered recoverable crashes + transients/stragglers/noise."""
    from repro.faults import (
        FaultPlan,
        MachineCrash,
        RetryPolicy,
        RuntimeNoise,
        StragglerModel,
        TransientFaults,
    )

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
    from repro.config import ClusterConfig, EnvConfig
    from repro.schedulers import compose_scheduler

    env_config = EnvConfig(
        cluster=ClusterConfig(capacities=CAPACITIES, horizon=8)
    )
    return compose_scheduler("heft", env_config, reschedule=True, fallback="cp")


def open_stream():
    """The open-system stream both open goldens replay.

    Fourteen 6-task layered DAGs in bursts of three (one of them
    replaced by a job no (5, 5) shard and no (10, 10) cluster can run),
    a same-instant burst of five jobs whose first task needs (4, 4) —
    more than shard 0 keeps after its crash — and two stragglers past
    every horizon used below.
    """
    from repro.config import WorkloadConfig
    from repro.dag.generators import random_layered_dag
    from repro.dag.graph import TaskGraph
    from repro.dag.task import Task
    from repro.online import ArrivingJob

    workload = WorkloadConfig(
        num_tasks=6,
        max_runtime=6,
        max_demand=4,
        runtime_mean=3.0,
        demand_mean=2.0,
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
    from repro.faults import (
        FaultPlan,
        MachineCrash,
        RetryPolicy,
        TransientFaults,
    )

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
    from repro.faults import (
        FaultPlan,
        MachineCrash,
        RetryPolicy,
        TransientFaults,
    )
    from repro.federation import ShardSpec
    from repro.online import cp_ranker, sjf_ranker
    from repro.streaming import AdmissionConfig

    admission = AdmissionConfig(max_concurrent=2, max_queue=1)
    plans = {
        0: FaultPlan(
            crashes=(MachineCrash(0, 40, (3, 3), recover_at=None),), seed=3
        ),
        2: FaultPlan(
            crashes=(MachineCrash(0, 10, (2, 2), recover_at=20),),
            transient=TransientFaults(0.15),
            retry=RetryPolicy(max_attempts=4, backoff_base=1, backoff_cap=4),
            seed=4,
        ),
    }
    rankers = (sjf_ranker, sjf_ranker, cp_ranker, sjf_ranker)
    return [
        ShardSpec(
            SHARD_CAPACITIES,
            rankers[k],
            admission=admission,
            faults=plans.get(k),
        )
        for k in range(4)
    ]


def _event_row(event):
    """One telemetry event, stripped of wall-clock fields."""
    row = {"kind": event.kind, "name": event.name, "depth": event.depth}
    if event.parent is not None:
        row["parent"] = event.parent
    if event.step is not None:
        row["step"] = event.step
    if event.value is not None:
        row["value"] = event.value
    if event.attrs:
        row["attrs"] = {
            key: value for key, value in sorted(event.attrs.items())
        }
    return row


def _result_payload(result):
    payload = {
        "makespan": result.makespan,
        "mean_utilization": list(result.mean_utilization),
        "nominal_utilization": list(
            getattr(result, "nominal_utilization", result.mean_utilization)
        ),
        "crashes": result.crashes,
        "recoveries": result.recoveries,
        "total_retries": result.total_retries,
        "outcomes": [
            {
                "job_index": o.job_index,
                "arrival_time": o.arrival_time,
                "completion_time": o.completion_time,
                "num_tasks": o.num_tasks,
                "failed": o.failed,
                "retries": o.retries,
                "transient_failures": o.transient_failures,
                "crash_kills": o.crash_kills,
            }
            for o in result.outcomes
        ],
        "fault_events": [
            [e.time, e.kind, e.job, e.task, e.attempt, e.detail]
            for e in result.fault_events
        ],
        "executed": [
            {
                "scheduler": schedule.scheduler,
                "placements": [
                    [p.task_id, p.start, p.finish]
                    for p in schedule.placements
                ],
            }
            for schedule in result.executed
        ],
    }
    return payload


def _streaming_payload(result):
    """Everything a ``StreamingResult`` carries, plus its metrics export."""
    return {
        "online": _result_payload(result.online),
        "queueing_delays": list(result.queueing_delays),
        "rejected": [
            [r.index, r.arrival_time, r.reason] for r in result.rejected
        ],
        "in_system": [list(point) for point in result.in_system],
        "arrivals": result.arrivals,
        "start_time": result.start_time,
        "horizon_cutoff": result.horizon_cutoff,
        "metrics_dict": result.metrics_dict(),
    }


def _federation_payload(result):
    return {
        "aggregate": _streaming_payload(result.aggregate),
        "shards": [
            {
                "shard_id": report.shard_id,
                "capacities": list(report.capacities),
                "routed": report.routed,
                "stolen_in": report.stolen_in,
                "stolen_out": report.stolen_out,
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


def run_scenario(name):
    """Run one golden scenario under a fresh telemetry session."""
    from repro.config import ClusterConfig
    from repro.online import OnlineSimulator, cp_ranker
    from repro.telemetry import TelemetryConfig, session

    if name not in GOLDEN_FILES:
        raise ValueError(f"unknown golden scenario {name!r}")
    if name in ("streaming_bounded", "federation_4shard"):
        return _run_open_scenario(name)
    simulator = OnlineSimulator(
        ClusterConfig(capacities=CAPACITIES, horizon=8)
    )
    stream = golden_stream()
    with session(TelemetryConfig(enabled=True, max_events=100_000)) as tm:
        if name == "faulty":
            result = simulator.run(
                stream,
                cp_ranker,
                faults=golden_faults(),
                rescheduler=golden_rescheduler(),
            )
        else:
            result = simulator.run(stream, cp_ranker)
        events = [_event_row(e) for e in tm.events()]
        metrics = _metrics_payload(tm)
    return {
        "scenario": name,
        "capacities": list(CAPACITIES),
        "result": _result_payload(result),
        "telemetry_events": events,
        "metrics": metrics,
    }


def _run_open_scenario(name):
    from repro.config import ClusterConfig
    from repro.federation import FederatedStreamingSimulator
    from repro.online import sjf_ranker
    from repro.streaming import (
        AdmissionConfig,
        StreamingSimulator,
        TraceArrivals,
    )
    from repro.telemetry import TelemetryConfig, session

    arrivals = TraceArrivals(open_stream())
    with session(TelemetryConfig(enabled=True, max_events=100_000)) as tm:
        if name == "streaming_bounded":
            capacities = CAPACITIES
            result = _streaming_payload(
                StreamingSimulator(
                    ClusterConfig(capacities=CAPACITIES, horizon=8)
                ).run(
                    arrivals,
                    sjf_ranker,
                    admission=AdmissionConfig(max_concurrent=3, max_queue=2),
                    horizon=50,
                    faults=streaming_faults(),
                )
            )
        else:
            capacities = SHARD_CAPACITIES
            result = _federation_payload(
                FederatedStreamingSimulator(
                    federation_specs(),
                    router="least-load",
                    steal_threshold=1,
                ).run(arrivals, horizon=50)
            )
        events = [_event_row(e) for e in tm.events()]
        metrics = _metrics_payload(tm)
    return {
        "scenario": name,
        "capacities": list(capacities),
        "result": result,
        "telemetry_events": events,
        "metrics": metrics,
    }


def serialize(payload):
    """The canonical byte layout the golden test compares against."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=DATA_DIR,
        help="write traces here instead of tests/data (e.g. a CI artifact "
        "directory); the committed goldens are only touched by the default",
    )
    options = parser.parse_args(argv)
    options.out_dir.mkdir(parents=True, exist_ok=True)
    for name, path in GOLDEN_FILES.items():
        payload = run_scenario(name)
        path = options.out_dir / path.name
        path.write_text(serialize(payload), encoding="utf-8")
        result = payload["result"]
        online = result.get("aggregate", result).get("online", result)
        events = online["fault_events"]
        kinds = sorted({row[1] for row in events})
        print(  # noqa: T201 - regeneration script, not library code
            f"wrote {path.name}: makespan={online['makespan']} "
            f"fault_events={len(events)} kinds={kinds} "
            f"telemetry={len(payload['telemetry_events'])}"
        )


if __name__ == "__main__":
    main()
