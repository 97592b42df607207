"""Cross-check the env rollout loop against the repro.sim kernel.

:class:`~repro.env.SchedulingEnv` keeps its own hand-rolled event loop
(a heapq of running tasks inside :class:`ClusterState`) for rollout
speed.  This test pins it to the discrete-event kernel: a greedy policy
realizes a schedule through ``env.step``, then the same placements are
replayed through :class:`SimKernel` + :class:`ClusterProcess` as arrival
and completion events.  The kernel must accept every placement (capacity
and dependencies) and realize the identical start/finish times and
makespan — so any drift between the two execution semantics fails here.
"""

import pytest

from repro.cluster.sim_adapter import ClusterProcess
from repro.cluster.state import ClusterState
from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.env import PROCESS, SchedulingEnv
from repro.sim import EventClass, SimKernel

CAPACITIES = (6, 6)


def greedy_rollout(graph):
    """Realize a schedule via env.step: always take the first legal
    schedule action, PROCESS only when nothing fits."""
    env = SchedulingEnv(graph, EnvConfig(cluster=ClusterConfig(capacities=CAPACITIES)))
    while not env.done:
        actions = env.legal_actions()
        assert actions, "env wedged: no legal actions before completion"
        env.step(actions[0] if actions[0] != PROCESS else PROCESS)
    return env.start_times(), env.makespan


def kernel_replay(graph, starts):
    """Execute ``starts`` on the kernel; return realized finish times."""
    state = ClusterState(CAPACITIES)
    kernel = SimKernel()
    finished = {}

    by_start = {}
    for tid, start in starts.items():
        by_start.setdefault(start, []).append(tid)

    def on_dispatch(event):
        for tid in sorted(by_start[event.time]):
            task = graph.task(tid)
            for parent in graph.parents(tid):
                assert parent in finished and finished[parent] <= state.now, (
                    f"task {tid} started before parent {parent} finished"
                )
            # ClusterState.start raises CapacityError if the env admitted
            # a task the kernel-timed cluster cannot hold.
            state.start(tid, task.demands, runtime=task.runtime)

    def on_completion(event):
        finished[event.payload.task_id] = state.now

    kernel.add_process(ClusterProcess(state, on_completion))
    for start in by_start:
        kernel.schedule(start, EventClass.ARRIVAL, on_dispatch)
    while kernel.tick() is not None:
        pass
    return finished, state.now


@pytest.mark.parametrize("seed", [0, 7, 21, 404])
@pytest.mark.parametrize("num_tasks", [4, 10, 16])
def test_env_rollout_matches_kernel_execution(seed, num_tasks):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=5,
        max_demand=4,
        runtime_mean=3.0,
        demand_mean=2.0,
    )
    graph = random_layered_dag(workload, seed=seed)
    starts, makespan = greedy_rollout(graph)
    assert set(starts) == set(graph.task_ids)

    finished, kernel_makespan = kernel_replay(graph, starts)
    assert kernel_makespan == makespan
    for tid, start in starts.items():
        assert finished[tid] == start + graph.task(tid).runtime


def test_kernel_replay_rejects_capacity_violation():
    workload = WorkloadConfig(
        num_tasks=6, max_runtime=3, max_demand=4, runtime_mean=3.0, demand_mean=4.0
    )
    # Force every task to start at 0: on an overfull packing the
    # kernel-side ClusterState refuses the admission the bogus
    # "schedule" claims, proving the replay is a real capacity check.
    for seed in range(50):
        graph = random_layered_dag(workload, seed=seed)
        total = [
            sum(graph.task(t).demands[d] for t in graph.task_ids) for d in range(2)
        ]
        if any(t > c for t, c in zip(total, CAPACITIES)):
            break
    else:  # pragma: no cover - 6 tasks on (6, 6) always oversubscribe
        pytest.fail("no oversubscribed job found in 50 seeds")
    bogus = {tid: 0 for tid in graph.task_ids}
    from repro.errors import CapacityError

    with pytest.raises((CapacityError, AssertionError)):
        kernel_replay(graph, bogus)
