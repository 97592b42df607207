"""The registered benchmark suite: one spec per hot path.

Benchmarks cover exactly the paths the perf work targets — environment
stepping and cloning, the cluster event sweep, MCTS search per budget
unit, the rollout policies, and observation building — on the same fig6
workload the experiments use, so a benchmark regression is a regression
in the numbers the paper reproduction reports.

Every ``setup`` builds its own inputs from the run seed; thunks touch no
shared mutable state.  All trajectories are precomputed or reseeded per
invocation so each timed invocation does identical work (deterministic
op counts are what make per-op times comparable across runs).
"""

from __future__ import annotations

from typing import Callable, List

from ..config import EnvConfig, MctsConfig
from ..dag.graph import TaskGraph
from ..env.actions import PROCESS
from ..env.scheduling_env import SchedulingEnv
from ..experiments.fig6 import generate_dags
from ..experiments.scale import resolve_scale
from ..schedulers.base import ScheduleRequest
from ..utils.rng import as_generator
from .runner import BenchmarkSpec

__all__ = ["default_suite"]


def _fig6_graph(seed: int) -> TaskGraph:
    """First DAG of the fig6 workload at repo (laptop) scale."""
    return generate_dags(resolve_scale(None), seed=seed)[0]


def _env(seed: int) -> SchedulingEnv:
    return SchedulingEnv(
        _fig6_graph(seed), EnvConfig(process_until_completion=True)
    )


def _random_trajectory(env: SchedulingEnv, seed: int) -> List[int]:
    """A fixed work-conserving episode's action sequence."""
    rng = as_generator(seed + 10_000)
    sim = env.clone()
    trajectory: List[int] = []
    while not sim.done:
        actions = sim.expansion_actions(work_conserving=True)
        action = actions[int(rng.integers(0, len(actions)))]
        trajectory.append(action)
        sim.step(action)
    return trajectory


# --------------------------------------------------------------------- #
# env group
# --------------------------------------------------------------------- #


def _setup_env_step(seed: int) -> Callable[[], None]:
    env = _env(seed)
    trajectory = _random_trajectory(env, seed)

    def thunk() -> None:
        sim = env.clone()
        step = sim.step
        for action in trajectory:
            step(action)

    thunk.ops = len(trajectory)  # type: ignore[attr-defined]
    return thunk


def _setup_env_clone(seed: int) -> Callable[[], None]:
    env = _env(seed)

    def thunk() -> None:
        for _ in range(1000):
            env.clone()

    return thunk


def _setup_env_apply_undo(seed: int) -> Callable[[], None]:
    env = _env(seed)
    if 0 not in env.legal_actions():  # pragma: no cover - defensive
        raise RuntimeError("benchmark workload has no initially fitting task")

    def thunk() -> None:
        apply, undo = env.apply, env.undo
        for _ in range(1000):
            undo(apply(0))

    return thunk


def _setup_env_legal_actions(seed: int) -> Callable[[], None]:
    env = _env(seed)
    env.legal_actions()  # prime the memo: measures the cached path

    def thunk() -> None:
        legal = env.legal_actions
        for _ in range(1000):
            legal()

    return thunk


def _setup_env_playout(seed: int) -> Callable[[], None]:
    env = _env(seed)
    limit = 1000 * env.graph.num_tasks

    def thunk() -> None:
        # Reseeded per invocation: every measurement plays the same episodes.
        rng = as_generator(seed + 20_000)
        for _ in range(10):
            env.clone().random_playout(rng, limit)

    return thunk


# --------------------------------------------------------------------- #
# cluster group
# --------------------------------------------------------------------- #


def _setup_cluster_event_sweep(seed: int) -> Callable[[], None]:
    from ..cluster.state import ClusterState

    state = ClusterState((200, 200))
    rng = as_generator(seed)
    for tid in range(40):
        state.start(
            tid,
            (int(rng.integers(1, 4)), int(rng.integers(1, 4))),
            int(rng.integers(1, 30)),
        )
    events = 0
    probe = state.clone()
    while not probe.is_idle:
        probe.advance_to_next_event()
        events += 1

    def thunk() -> None:
        sweep = state.clone()
        advance = sweep.advance_to_next_event
        while sweep._running:
            advance()

    thunk.ops = events  # type: ignore[attr-defined]
    return thunk


def _setup_cluster_start(seed: int) -> Callable[[], None]:
    from ..cluster.state import ClusterState

    rng = as_generator(seed)
    demands = [
        (int(rng.integers(1, 3)), int(rng.integers(1, 3))) for _ in range(100)
    ]

    def thunk() -> None:
        state = ClusterState((500, 500))
        start = state.start
        for tid, demand in enumerate(demands):
            start(tid, demand, 5, precleared=True)

    thunk.ops = len(demands)  # type: ignore[attr-defined]
    return thunk


# --------------------------------------------------------------------- #
# mcts group
# --------------------------------------------------------------------- #


def _setup_mcts_search(seed: int) -> Callable[[], None]:
    from ..mcts.search import MctsScheduler

    scale = resolve_scale(None)
    graph = _fig6_graph(seed)
    env_config = EnvConfig(process_until_completion=True)
    config = MctsConfig(
        initial_budget=scale.spear_budget, min_budget=scale.spear_min_budget
    )

    def make_scheduler() -> MctsScheduler:
        return MctsScheduler(config, env_config, seed=seed)

    # The iteration count is deterministic for a fixed seed and workload,
    # so per-budget-unit time is wall time divided by a constant.
    probe = make_scheduler()
    probe.plan(ScheduleRequest(graph))
    iterations = probe.last_statistics.iterations

    def thunk() -> None:
        make_scheduler().plan(ScheduleRequest(graph))

    thunk.ops = iterations  # type: ignore[attr-defined]
    return thunk


def _setup_rollout_random(seed: int) -> Callable[[], None]:
    from ..mcts.policies import RandomRollout

    env = _env(seed)

    def thunk() -> None:
        rollout = RandomRollout(seed=seed + 30_000)
        for _ in range(10):
            rollout.rollout(env.clone())

    return thunk


def _setup_rollout_greedy(seed: int) -> Callable[[], None]:
    from ..mcts.policies import GreedyRollout

    env = _env(seed)
    rollout = GreedyRollout()  # deterministic: safe to reuse across repeats

    def thunk() -> None:
        for _ in range(10):
            rollout.rollout(env.clone())

    return thunk


# --------------------------------------------------------------------- #
# observation group
# --------------------------------------------------------------------- #


def _setup_observation_build(seed: int) -> Callable[[], None]:
    from ..env.observation import ObservationBuilder

    env = _env(seed)
    builder = ObservationBuilder(env.graph, env.config)
    # Mid-episode state: schedule whatever fits, process once.
    while True:
        actions = [a for a in env.legal_actions() if a != PROCESS]
        if not actions:
            break
        env.step(actions[0])
    env.step(PROCESS)

    def thunk() -> None:
        build = builder.build
        for _ in range(100):
            build(env)

    return thunk


# --------------------------------------------------------------------- #
# telemetry group
# --------------------------------------------------------------------- #


def _setup_telemetry_span_disabled(seed: int) -> Callable[[], None]:
    """Cost of an instrumentation point while telemetry is off.

    This is the per-decision price every MCTS search pays by default —
    the no-op span returned by the disabled pipeline — so the budget on
    this benchmark is what keeps instrumentation off the hot paths.
    """
    from ..telemetry import runtime

    tm = runtime.DISABLED

    def thunk() -> None:
        span = tm.span
        for _ in range(1000):
            with span("mcts.decision", depth=1, budget=50):
                pass

    return thunk


def _setup_telemetry_span_enabled(seed: int) -> Callable[[], None]:
    """Cost of the same span with a live in-memory pipeline.

    The enabled/disabled delta is the advertised overhead of turning
    tracing on; the ring buffer caps memory so repeats do identical work.
    """
    from ..telemetry import Telemetry, TelemetryConfig

    tm = Telemetry(TelemetryConfig(enabled=True, max_events=10_000))

    def thunk() -> None:
        span = tm.span
        for _ in range(1000):
            with span("mcts.decision", depth=1, budget=50):
                pass

    return thunk


# --------------------------------------------------------------------- #
# faults group
# --------------------------------------------------------------------- #


# --------------------------------------------------------------------- #
# envarr group (batched kernels)
# --------------------------------------------------------------------- #


def _setup_envarr_batch_playouts(seed: int) -> Callable[[], None]:
    """256 lockstep random playouts through the batched kernel."""
    from ..envarr.batch import BatchedPlayouts

    env = _env(seed)
    kernel = BatchedPlayouts(env.graph, env.config)
    lanes = [env] * 256  # run() copies lane state; inputs are never mutated
    limit = 50 * (int(kernel.arrays.durations.sum()) + env.graph.num_tasks)
    rng_seed = seed + 40_000

    def thunk() -> None:
        kernel.run(lanes, as_generator(rng_seed), limit)

    thunk.ops = len(lanes)  # type: ignore[attr-defined]
    return thunk


def _setup_envarr_search_budget_unit(seed: int) -> Callable[[], None]:
    """MCTS with batched leaf collection, per budget unit.

    Same workload as ``mcts.search_budget_unit`` but at a wide-wave
    configuration (flat 512 budget, ``rollout_batch=512``) where the
    fused playout kernel amortizes.  Tree nodes hold no environment, so
    every descent of a wave re-walks its path with ``apply``/``undo``
    (~16 edges for ~1.2 leaves per descent here): measured ~97 us per
    unit against ~38 us while nodes held clones, and ~140 us for the
    sequential search.  Under the decayed per-decision budgets of the
    sequential benchmark the waves are too small to win — tree descent
    dominates — so this entry prices the regime the kernel is built for.
    """
    from ..mcts.search import MctsScheduler

    graph = _fig6_graph(seed)
    env_config = EnvConfig(process_until_completion=True)
    config = MctsConfig(
        initial_budget=512,
        min_budget=512,
        use_budget_decay=False,
        rollout_batch=512,
    )

    def make_scheduler() -> MctsScheduler:
        return MctsScheduler(config, env_config, seed=seed)

    probe = make_scheduler()
    probe.plan(ScheduleRequest(graph))
    iterations = probe.last_statistics.iterations

    def thunk() -> None:
        make_scheduler().plan(ScheduleRequest(graph))

    thunk.ops = iterations  # type: ignore[attr-defined]
    return thunk


# --------------------------------------------------------------------- #
# rl group
# --------------------------------------------------------------------- #


def _setup_rl_policy_select(seed: int) -> Callable[[], None]:
    """The single-state policy step over one sampled episode's states.

    This is the step of the standalone ``drl`` scheduler and, with
    recording on, of the trainers; network-guided rollouts no longer take
    it (``NetworkRollout.rollout`` is one fused playout per episode).
    The states are those of one sampled work-conserving episode, so
    forced states (one candidate action: no observation, no forward)
    and unforced ones occur in their real mix.
    """
    from ..core.pipeline import default_network

    env = _env(seed)
    network = default_network(env.config, seed=seed)
    policy = network.make_policy(mode="sample", seed=seed)
    states = []
    sim = env.clone()
    while not sim.done:
        states.append(sim.clone())
        sim.step(policy.select(sim))

    def thunk() -> None:
        select = policy.select
        for state in states:
            select(state)

    thunk.ops = len(states)  # type: ignore[attr-defined]
    return thunk


def _setup_faults_inject_step(seed: int) -> Callable[[], None]:
    """Per-dispatch cost of drawing one fault-injected task attempt.

    The online executor calls :meth:`FaultInjector.attempt` once per
    dispatch, on the serving path; its cost is dominated by spawning the
    per-attempt ``SeedSequence`` generator.  The budget on this benchmark
    is what keeps fault-aware mode from slowing the executor down.
    """
    from ..faults import (
        FaultInjector,
        FaultPlan,
        RuntimeNoise,
        StragglerModel,
        TransientFaults,
    )

    plan = FaultPlan(
        transient=TransientFaults(0.05),
        straggler=StragglerModel(0.1, slowdown=2.0),
        noise=RuntimeNoise(kind="lognormal", scale=0.2),
        seed=seed,
    )
    injector = FaultInjector(plan)
    # Fresh keys per call mirror real use: each dispatch is a new attempt.
    keys = [(j, t, 1) for j in range(5) for t in range(100)]

    def thunk() -> None:
        attempt = injector.attempt
        for j, t, a in keys:
            attempt(j, t, a, 10)

    thunk.ops = len(keys)  # type: ignore[attr-defined]
    return thunk


# --------------------------------------------------------------------- #
# online group
# --------------------------------------------------------------------- #


def _online_inputs(seed: int):
    """A fixed six-job arrival stream on a (10, 10) cluster."""
    from ..config import ClusterConfig, WorkloadConfig
    from ..dag.generators import random_layered_dag
    from ..online import ArrivingJob, OnlineSimulator

    workload = WorkloadConfig(
        num_tasks=8, max_runtime=6, max_demand=4, runtime_mean=3.0, demand_mean=2.0
    )
    jobs = [
        ArrivingJob(3 * i, random_layered_dag(workload, seed=seed + 100 + i))
        for i in range(6)
    ]
    simulator = OnlineSimulator(ClusterConfig(capacities=(10, 10), horizon=8))
    return simulator, jobs


def _setup_online_fault_free(seed: int) -> Callable[[], None]:
    """End-to-end fault-free online run through the repro.sim kernel.

    One thunk is a whole six-job episode — arrivals, greedy dispatch,
    completions — so per-task time prices the kernel event loop plus a
    dispatch round per tick.  The budget here is what keeps the kernel
    refactor from taxing the serving path.
    """
    from ..online import cp_ranker

    simulator, jobs = _online_inputs(seed)
    num_tasks = sum(job.graph.num_tasks for job in jobs)

    def thunk() -> None:
        simulator.run(jobs, cp_ranker)

    thunk.ops = num_tasks  # type: ignore[attr-defined]
    return thunk


def _setup_online_faulty(seed: int) -> Callable[[], None]:
    """The same episode under crash + transient faults with retries.

    Adds the fault-mode surcharge on top of the fault-free run: timeline
    cursor drains, per-attempt injector draws, retry backoff events and
    crash-triggered replans all ride the kernel queue.
    """
    from ..faults import (
        FaultPlan,
        MachineCrash,
        RetryPolicy,
        RuntimeNoise,
        StragglerModel,
        TransientFaults,
    )
    from ..online import cp_ranker

    simulator, jobs = _online_inputs(seed)
    num_tasks = sum(job.graph.num_tasks for job in jobs)
    plan = FaultPlan(
        crashes=(
            MachineCrash(0, 6, (4, 4), recover_at=18),
            MachineCrash(1, 30, (3, 3), recover_at=44),
        ),
        transient=TransientFaults(0.15),
        straggler=StragglerModel(0.1, slowdown=2.0),
        noise=RuntimeNoise(kind="lognormal", scale=0.2),
        retry=RetryPolicy(max_attempts=4, backoff_base=2, backoff_cap=8),
        seed=seed + 13,
    )

    def thunk() -> None:
        simulator.run(jobs, cp_ranker, faults=plan)

    thunk.ops = num_tasks  # type: ignore[attr-defined]
    return thunk


# --------------------------------------------------------------------- #
# streaming group
# --------------------------------------------------------------------- #


def _setup_streaming_arrival_step(seed: int) -> Callable[[], None]:
    """Per-arrival cost of the open-system admission path.

    One thunk runs a short Poisson stream under a tight concurrency
    limit, so every arrival exercises the full chain — lazy stream pull,
    feasibility check, admission decision, backlog churn — on top of the
    kernel loop.  Per-arrival time is the steady-state serving overhead
    an operator pays per submitted job.
    """
    from ..config import ClusterConfig
    from ..online import sjf_ranker
    from ..streaming import (
        AdmissionConfig,
        PoissonProcess,
        StreamingSimulator,
        layered_job_factory,
    )

    process = PoissonProcess(0.5, 60, layered_job_factory(), seed=seed)
    simulator = StreamingSimulator(ClusterConfig(capacities=(10, 10), horizon=8))
    admission = AdmissionConfig(max_concurrent=3, max_queue=8)

    def thunk() -> None:
        simulator.run(process, sjf_ranker, admission=admission)

    thunk.ops = process.num_jobs  # type: ignore[attr-defined]
    return thunk


def _setup_streaming_steady_1k_jobs(seed: int) -> Callable[[], None]:
    """A 1000-job steady-state horizon, end to end.

    The tentpole scale claim: thousands of concurrent DAGs through the
    lazy arrival chain without materializing the stream.  Per-job time
    here is the number that must stay flat as the streaming layer grows.
    """
    from ..config import ClusterConfig
    from ..online import sjf_ranker
    from ..streaming import PoissonProcess, StreamingSimulator, layered_job_factory

    process = PoissonProcess(0.3, 1000, layered_job_factory(), seed=seed)
    simulator = StreamingSimulator(ClusterConfig(capacities=(20, 20), horizon=8))

    def thunk() -> None:
        simulator.run(process, sjf_ranker)

    thunk.ops = process.num_jobs  # type: ignore[attr-defined]
    return thunk


# --------------------------------------------------------------------- #
# federation group
# --------------------------------------------------------------------- #


def _setup_federation_route_step(seed: int) -> Callable[[], None]:
    """Per-arrival cost of the federated routing path.

    Same open-system shape as streaming.arrival_step, but every arrival
    additionally pays the ROUTE event hop, the per-shard feasibility
    scan, and the least-loaded placement decision across two shards.
    The delta against streaming.arrival_step is the routing overhead.
    """
    from ..federation import FederatedStreamingSimulator, ShardSpec
    from ..online import sjf_ranker
    from ..streaming import AdmissionConfig, PoissonProcess, layered_job_factory

    process = PoissonProcess(0.5, 60, layered_job_factory(), seed=seed)
    admission = AdmissionConfig(max_concurrent=3, max_queue=8)
    specs = [ShardSpec((5, 5), sjf_ranker, admission=admission) for _ in range(2)]
    simulator = FederatedStreamingSimulator(specs, router="least-load")

    def thunk() -> None:
        simulator.run(process)

    thunk.ops = process.num_jobs  # type: ignore[attr-defined]
    return thunk


def _setup_federation_steady_2shard(seed: int) -> Callable[[], None]:
    """A steady-state 2-shard federation with stealing enabled.

    End-to-end per-job cost of the full federated stack — shared kernel,
    namespaced shard processes, routing, imbalance checks after every
    settle — at a scale where the work stealer actually fires.  Per-job
    time here must stay comparable to the single-scheduler streaming
    path for the federation to be worth its overhead.
    """
    from ..federation import FederatedStreamingSimulator, ShardSpec
    from ..online import sjf_ranker
    from ..streaming import PoissonProcess, layered_job_factory

    process = PoissonProcess(0.3, 400, layered_job_factory(), seed=seed)
    specs = [ShardSpec((10, 10), sjf_ranker) for _ in range(2)]
    simulator = FederatedStreamingSimulator(
        specs, router="hash:salt=1", steal_threshold=1
    )

    def thunk() -> None:
        simulator.run(process)

    thunk.ops = process.num_jobs  # type: ignore[attr-defined]
    return thunk


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #


def default_suite() -> List[BenchmarkSpec]:
    """All registered benchmarks, in display order.

    Setups whose op count depends on the generated workload (trajectory
    length, event count, MCTS iteration count) report it via the thunk's
    ``ops`` attribute; the others declare ``inner_ops`` here.
    """
    return [
        BenchmarkSpec("env.step", "env", _setup_env_step),
        BenchmarkSpec("env.clone", "env", _setup_env_clone, inner_ops=1000),
        BenchmarkSpec(
            "env.apply_undo", "env", _setup_env_apply_undo, inner_ops=1000
        ),
        BenchmarkSpec(
            "env.legal_actions_cached",
            "env",
            _setup_env_legal_actions,
            inner_ops=1000,
        ),
        BenchmarkSpec(
            "env.random_playout",
            "env",
            _setup_env_playout,
            inner_ops=10,
            repeats=20,
        ),
        BenchmarkSpec("cluster.event_sweep", "cluster", _setup_cluster_event_sweep),
        BenchmarkSpec("cluster.start", "cluster", _setup_cluster_start),
        BenchmarkSpec(
            "mcts.search_budget_unit",
            "mcts",
            _setup_mcts_search,
            repeats=10,
            quick_repeats=3,
            warmup=1,
        ),
        BenchmarkSpec(
            "mcts.rollout_random",
            "mcts",
            _setup_rollout_random,
            inner_ops=10,
            repeats=20,
        ),
        BenchmarkSpec(
            "mcts.rollout_greedy",
            "mcts",
            _setup_rollout_greedy,
            inner_ops=10,
            repeats=20,
        ),
        BenchmarkSpec(
            "observation.build",
            "observation",
            _setup_observation_build,
            inner_ops=100,
        ),
        BenchmarkSpec(
            "envarr.batch_playouts",
            "envarr",
            _setup_envarr_batch_playouts,
            repeats=10,
            quick_repeats=3,
            warmup=1,
        ),
        BenchmarkSpec(
            "envarr.search_budget_unit",
            "envarr",
            _setup_envarr_search_budget_unit,
            repeats=10,
            quick_repeats=3,
            warmup=1,
        ),
        BenchmarkSpec(
            "rl.policy_select",
            "rl",
            _setup_rl_policy_select,
            repeats=20,
            quick_repeats=3,
            warmup=1,
        ),
        BenchmarkSpec(
            "faults.inject_step",
            "faults",
            _setup_faults_inject_step,
        ),
        BenchmarkSpec(
            "online.run_fault_free",
            "online",
            _setup_online_fault_free,
            repeats=10,
            quick_repeats=3,
            warmup=1,
        ),
        BenchmarkSpec(
            "online.run_faulty",
            "online",
            _setup_online_faulty,
            repeats=10,
            quick_repeats=3,
            warmup=1,
        ),
        BenchmarkSpec(
            "streaming.arrival_step",
            "streaming",
            _setup_streaming_arrival_step,
            repeats=10,
            quick_repeats=3,
            warmup=1,
        ),
        BenchmarkSpec(
            "streaming.steady_1k_jobs",
            "streaming",
            _setup_streaming_steady_1k_jobs,
            repeats=5,
            quick_repeats=1,
            warmup=1,
        ),
        BenchmarkSpec(
            "federation.route_step",
            "federation",
            _setup_federation_route_step,
            repeats=10,
            quick_repeats=3,
            warmup=1,
        ),
        BenchmarkSpec(
            "federation.steady_2shard",
            "federation",
            _setup_federation_steady_2shard,
            repeats=5,
            quick_repeats=1,
            warmup=1,
        ),
        BenchmarkSpec(
            "telemetry.span_disabled",
            "telemetry",
            _setup_telemetry_span_disabled,
            inner_ops=1000,
        ),
        BenchmarkSpec(
            "telemetry.span_enabled",
            "telemetry",
            _setup_telemetry_span_enabled,
            inner_ops=1000,
        ),
    ]
