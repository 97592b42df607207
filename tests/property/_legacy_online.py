"""Frozen pre-kernel online simulator — the equivalence oracle.

This is the monolithic ``OnlineSimulator._run`` event loop exactly as it
shipped before the :mod:`repro.sim` kernel extraction, with telemetry
stripped (the oracle compares results, not instrumentation).  It exists
only so property tests can assert the re-layered engine realizes
bit-identical runs; do not "improve" it — its value is being frozen.

Note ``mean_utilization`` here carries the *historical* definition
(busy / nominal-capacity x horizon), which the new engine reports as
``nominal_utilization``.
"""

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.resources import fits, validate_demands
from repro.cluster.state import ClusterState
from repro.config import ClusterConfig
from repro.errors import ConfigError, EnvironmentStateError, ReproError
from repro.faults.events import (
    CRASH,
    JOB_FAILED,
    RECOVERY,
    RETRY,
    TASK_FAILURE,
    FaultEvent,
)
from repro.faults.injector import FaultInjector, TaskAttempt
from repro.faults.plan import FaultPlan
from repro.metrics.schedule import Schedule
from repro.online.execution import ActiveJob
from repro.schedulers.rules import Ranker, TaskContext
from repro.online.results import ArrivingJob, JobOutcome, OnlineResult
from repro.schedulers.base import ClusterSnapshot, Scheduler, ScheduleRequest

__all__ = ["legacy_run"]


@dataclass
class _FaultState:
    plan: FaultPlan
    injector: FaultInjector
    timeline: List
    timeline_pos: int = 0
    delayed: List[Tuple[int, int, int]] = field(default_factory=list)  # heap
    events: List[FaultEvent] = field(default_factory=list)
    crashes: int = 0
    recoveries: int = 0
    total_retries: int = 0


def legacy_run(
    jobs: Sequence[ArrivingJob],
    ranker: Ranker,
    cluster: Optional[ClusterConfig] = None,
    max_steps: int = 1_000_000,
    faults: Optional[FaultPlan] = None,
    rescheduler: Optional[Scheduler] = None,
) -> OnlineResult:
    """The pre-kernel event loop, verbatim (minus telemetry)."""
    cluster_config = cluster if cluster is not None else ClusterConfig()
    if not jobs:
        raise ConfigError("need at least one arriving job")
    capacities = cluster_config.capacities
    for job in jobs:
        if job.graph.num_resources != len(capacities):
            raise ConfigError(
                f"job graph has {job.graph.num_resources} resource dims, "
                f"cluster has {len(capacities)}"
            )
        for task in job.graph:
            validate_demands(task.demands, capacities, label=task.label())

    fstate: Optional[_FaultState] = None
    if faults is not None and not faults.is_null:
        faults.validate_against(capacities)
        injector = FaultInjector(faults)
        fstate = _FaultState(
            plan=faults, injector=injector, timeline=injector.timeline()
        )

    ordered = sorted(enumerate(jobs), key=lambda e: (e[1].arrival_time, e[0]))
    pending = [(job.arrival_time, index, job) for index, job in ordered]
    pending_pos = 0

    state = ClusterState(capacities)
    active: Dict[int, ActiveJob] = {}
    offset = 1 + max(max(job.graph.task_ids) for job in jobs)
    running_info: Dict[int, Tuple[int, TaskAttempt]] = {}
    outcomes: List[JobOutcome] = []
    executed: Dict[int, Schedule] = {}
    plan_rank: Optional[Dict[int, Dict[int, int]]] = (
        {} if rescheduler is not None else None
    )
    exec_label = rescheduler.name if rescheduler is not None else "online"
    busy_area = [0] * len(capacities)
    last_time = 0
    steps = 0

    def emit_fault(event: FaultEvent) -> None:
        assert fstate is not None
        fstate.events.append(event)

    def replan_job(job: ActiveJob, trigger: str) -> None:
        assert rescheduler is not None and plan_rank is not None
        running_tids = {
            handle % offset: handle
            for handle in running_info
            if handle // offset == job.index
        }
        residual = [
            tid
            for tid in job.graph.task_ids
            if tid not in job.executed and tid not in running_tids
        ]
        if not residual:
            plan_rank.pop(job.index, None)
            return
        request = ScheduleRequest(
            graph=job.graph.subgraph(residual),
            cluster=ClusterSnapshot(
                capacities=tuple(state.capacities),
            ),
        )
        try:
            schedule = rescheduler.plan(request)
        except ReproError:
            return
        order = sorted(schedule.placements, key=lambda p: (p.start, p.task_id))
        plan_rank[job.index] = {p.task_id: r for r, p in enumerate(order)}

    def replan_all(trigger: str) -> None:
        if rescheduler is None:
            return
        for job in sorted(active.values(), key=lambda j: j.index):
            replan_job(job, trigger)

    def admit_arrivals() -> None:
        nonlocal pending_pos
        while pending_pos < len(pending) and pending[pending_pos][0] <= state.now:
            _, index, job = pending[pending_pos]
            active[index] = ActiveJob(index, job.arrival_time, job.graph)
            pending_pos += 1
            if rescheduler is not None:
                replan_job(active[index], "admit")

    def fail_job(job: ActiveJob, reason: str) -> None:
        for handle in [h for h in running_info if h // offset == job.index]:
            running_info.pop(handle)
            for entry in state.running_tasks():
                if entry.task_id == handle:
                    state.kill(entry)
                    break
        outcomes.append(job.outcome(state.now, failed=True))
        executed[job.index] = job.executed_schedule(exec_label)
        emit_fault(FaultEvent(state.now, JOB_FAILED, job=job.index, detail=reason))
        del active[job.index]
        if plan_rank is not None:
            plan_rank.pop(job.index, None)

    def fire_crash(entry) -> None:
        assert fstate is not None
        loss = entry.capacity
        killed = 0
        while any(state.available[r] < loss[r] for r in range(len(loss))):
            victims = sorted(
                state.running_tasks(), key=lambda e: (-e.finish_time, -e.task_id)
            )
            victim = next(
                (
                    v
                    for v in victims
                    if any(
                        v.demands[r] > 0 and state.available[r] < loss[r]
                        for r in range(len(loss))
                    )
                ),
                None,
            )
            if victim is None:
                break
            state.kill(victim)
            killed += 1
            handle = victim.task_id
            running_info.pop(handle)
            job_index, tid = divmod(handle, offset)
            job = active[job_index]
            job.crash_kills += 1
            job.retries += 1
            fstate.total_retries += 1
            job.ready.append(tid)
            emit_fault(
                FaultEvent(
                    state.now,
                    RETRY,
                    job=job_index,
                    task=tid,
                    attempt=job.attempts.get(tid, 0),
                    detail="crash_kill",
                )
            )
        state.adjust_capacity([-c for c in loss])
        fstate.crashes += 1
        emit_fault(
            FaultEvent(
                state.now,
                CRASH,
                detail=f"machine {entry.machine} lost {loss}, killed {killed}",
            )
        )

    def fire_recovery(entry) -> None:
        assert fstate is not None
        state.adjust_capacity(entry.capacity)
        fstate.recoveries += 1
        emit_fault(
            FaultEvent(
                state.now,
                RECOVERY,
                detail=f"machine {entry.machine} restored {entry.capacity}",
            )
        )

    def process_externals() -> None:
        admit_arrivals()
        if fstate is None:
            return
        fault_fired = False
        while (
            fstate.timeline_pos < len(fstate.timeline)
            and fstate.timeline[fstate.timeline_pos].time <= state.now
        ):
            entry = fstate.timeline[fstate.timeline_pos]
            fstate.timeline_pos += 1
            if entry.kind == "crash":
                fire_crash(entry)
            else:
                fire_recovery(entry)
            fault_fired = True
        while fstate.delayed and fstate.delayed[0][0] <= state.now:
            _, job_index, tid = heapq.heappop(fstate.delayed)
            job = active.get(job_index)
            if job is not None:
                job.ready.append(tid)
        if fault_fired:
            replan_all("crash")

    def next_external() -> Optional[int]:
        times = []
        if pending_pos < len(pending):
            times.append(pending[pending_pos][0])
        if fstate is not None:
            if fstate.timeline_pos < len(fstate.timeline):
                times.append(fstate.timeline[fstate.timeline_pos].time)
            if fstate.delayed:
                times.append(fstate.delayed[0][0])
        return min(times) if times else None

    def dispatch(job: ActiveJob, tid: int) -> None:
        task = job.graph.task(tid)
        attempt_no = job.attempts.get(tid, 0) + 1
        job.attempts[tid] = attempt_no
        if fstate is not None:
            attempt = fstate.injector.attempt(job.index, tid, attempt_no, task.runtime)
        else:
            attempt = TaskAttempt(runtime=task.runtime, fails=False, straggled=False)
        handle = job.index * offset + tid
        state.start(handle, task.demands, attempt.runtime)
        running_info[handle] = (state.now, attempt)
        job.ready.remove(tid)

    def start_fitting() -> None:
        while True:
            free = state.available
            candidates: List[Tuple[Tuple, int, int]] = []
            for job in active.values():
                ranks = plan_rank.get(job.index) if plan_rank is not None else None
                for tid in job.ready:
                    task = job.graph.task(tid)
                    if fits(task.demands, free):
                        if ranks is not None and tid in ranks:
                            key: Tuple = (0, job.arrival, job.index, ranks[tid], tid)
                        else:
                            ctx = TaskContext(
                                task=task,
                                job_index=job.index,
                                arrival_time=job.arrival,
                                ready_seq=job.ready_seq[tid],
                                graph=job.graph,
                                features=job.features,
                                free=free,
                                now=state.now,
                            )
                            key = (1,) + tuple(ranker(ctx))
                        candidates.append((key, job.index, tid))
            if not candidates:
                return
            _, job_index, tid = min(candidates)
            dispatch(active[job_index], tid)

    def account_usage(until: int) -> None:
        nonlocal last_time
        if until <= last_time:
            return
        span = until - last_time
        for r in range(len(capacities)):
            busy_area[r] += span * (state.capacities[r] - state.available[r])
        last_time = until

    def handle_completion(handle: int) -> None:
        job_index, tid = divmod(handle, offset)
        job = active.get(job_index)
        if job is None:
            running_info.pop(handle, None)
            return
        start, attempt = running_info.pop(handle)
        if attempt.fails:
            assert fstate is not None
            job.transient_failures += 1
            strikes = job.strikes.get(tid, 0) + 1
            job.strikes[tid] = strikes
            emit_fault(
                FaultEvent(
                    state.now,
                    TASK_FAILURE,
                    job=job_index,
                    task=tid,
                    attempt=job.attempts[tid],
                    detail="straggler" if attempt.straggled else "",
                )
            )
            if strikes >= fstate.injector.max_attempts:
                fail_job(
                    job,
                    reason=(
                        f"task {tid} failed {strikes} attempts "
                        f"(budget {fstate.injector.max_attempts})"
                    ),
                )
                return
            delay = fstate.injector.backoff(strikes)
            ready_at = state.now + delay
            heapq.heappush(fstate.delayed, (ready_at, job_index, tid))
            job.retries += 1
            fstate.total_retries += 1
            emit_fault(
                FaultEvent(
                    state.now,
                    RETRY,
                    job=job_index,
                    task=tid,
                    attempt=job.attempts[tid],
                    detail=f"backoff {delay}, ready at {ready_at}",
                )
            )
            if rescheduler is not None:
                replan_job(job, "task_failure")
            return
        job.executed[tid] = (start, state.now)
        job.remaining -= 1
        for child in job.graph.children(tid):
            job.unmet[child] -= 1
            if job.unmet[child] == 0:
                job.ready.append(child)
                job.ready_seq[child] = len(job.ready_seq)
        if job.remaining == 0:
            outcomes.append(job.outcome(state.now))
            executed[job.index] = job.executed_schedule(exec_label)
            del active[job_index]
            if plan_rank is not None:
                plan_rank.pop(job_index, None)

    first_arrival = pending[0][0]
    if first_arrival > 0:
        state.now = first_arrival
        last_time = first_arrival

    process_externals()
    start_fitting()
    while active or pending_pos < len(pending):
        steps += 1
        if steps > max_steps:
            raise EnvironmentStateError("online simulation exceeded step cap")
        ext = next_external()
        if state.is_idle:
            if ext is None:
                if fstate is not None:
                    for job in sorted(active.values(), key=lambda j: j.index):
                        fail_job(job, reason="unschedulable residual work")
                    continue
                raise EnvironmentStateError(
                    "idle cluster with active jobs but nothing ready: "
                    "inconsistent DAG state"
                )
            account_usage(ext)
            state.now = max(state.now, ext)
            process_externals()
            start_fitting()
            continue
        next_completion = state.earliest_finish_time()
        if ext is not None and ext < next_completion:
            account_usage(ext)
            if ext > state.now:
                state.advance(ext - state.now)
            process_externals()
            start_fitting()
            continue
        account_usage(next_completion)
        _, completed = state.advance_to_next_event()
        process_externals()
        for handle in completed:
            handle_completion(handle)
        start_fitting()

    makespan = state.now
    horizon = max(1, makespan - first_arrival)
    utilization = tuple(
        busy_area[r] / (horizon * capacities[r]) for r in range(len(capacities))
    )
    outcomes.sort(key=lambda o: o.job_index)
    return OnlineResult(
        outcomes=tuple(outcomes),
        makespan=makespan,
        mean_utilization=utilization,
        crashes=fstate.crashes if fstate is not None else 0,
        recoveries=fstate.recoveries if fstate is not None else 0,
        total_retries=fstate.total_retries if fstate is not None else 0,
        fault_events=tuple(fstate.events) if fstate is not None else (),
        executed=tuple(executed[o.job_index] for o in outcomes),
    )
