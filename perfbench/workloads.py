"""The six workloads, driven through ``repro``'s public API only.

A workload is a set of inputs made from ``--seed`` plus one user-visible
operation — a ``plan()``, a training round, a simulator round, a burst of
served requests — that the runner times as one *segment*.  Each workload
has ``cycle`` distinct inputs; the runner walks them round-robin for as
long as ``--seconds`` allows, so a cycle measured twice must reproduce its
exact values (makespans, search counts, result digests) or the run is
reported incorrect.

Per segment the runner calls, in this order::

    prepare(i)        untimed   fresh scheduler / trainer for input i
    run(i)            TIMED     the operation itself, nothing else
    check(i, output)  untimed   validity, lower bound, conservation

``repro`` only ever sees generated inputs: the seed never reaches it
except through the DAGs, arrival streams and per-plan RNG seeds built
here.

Sizes were fitted so that one cycle takes 10-13 s on the 2-core box the
baseline was recorded on (see README.md); ``smoke`` sizes run each
workload in about a second for the self-tests.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from .checks import makespan_lower_bound, params_digest

__all__ = ["SIZES", "WORKLOADS", "Segment", "Workload", "make_workload"]

DATA = Path(__file__).resolve().parent / "data"

#: Final sizes.  ``trace_segments`` is how many segments the traced pass
#: (and the untraced pass it is compared with) covers: about a third of
#: what a full run measures.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "spear_plan": {
        "full": dict(dags=10, tasks=30, budget=50, min_budget=10, trace_segments=3),
        "smoke": dict(dags=2, tasks=10, budget=8, min_budget=4, trace_segments=1),
    },
    "mcts_plan": {
        "full": dict(dags=6, tasks=100, budget=100, min_budget=20, trace_segments=2,
                     scaling=(50, 100, 200)),
        "smoke": dict(dags=2, tasks=12, budget=10, min_budget=4, trace_segments=1,
                      scaling=(6, 12, 24)),
    },
    "mcts_wave": {
        "full": dict(dags=6, tasks=100, budget=100, min_budget=20, trace_segments=2,
                     rollout_batch=32),
        "smoke": dict(dags=2, tasks=12, budget=10, min_budget=4, trace_segments=1,
                      rollout_batch=4),
    },
    "train_epoch": {
        "full": dict(rounds=6, trace_segments=2,
                     reinforce=dict(graphs=16, tasks=25, rollouts=10),
                     ppo=dict(graphs=6, tasks=25, rollouts=2)),
        "smoke": dict(rounds=2, trace_segments=1,
                      reinforce=dict(graphs=2, tasks=8, rollouts=2),
                      ppo=dict(graphs=1, tasks=8, rollouts=2)),
    },
    "stream_sim": {
        "full": dict(rate=0.15, jobs=1500, shards=4, online_jobs=150, online_gap=8,
                     trace_segments=3),
        "smoke": dict(rate=0.15, jobs=60, shards=4, online_jobs=12, online_gap=8,
                      trace_segments=1),
    },
    "serve_roundtrip": {
        "full": dict(dags=150, tasks=100, connections=2, trace_segments=6),
        "smoke": dict(dags=12, tasks=20, connections=2, trace_segments=1),
    },
}


@dataclass
class Segment:
    """What one checked segment contributes to the run's result."""

    work: int  # units of the workload's ``unit`` done in the segment
    attempted: int  # operations whose output was checked
    failed: int  # ... of which wrong, missing or refused
    exact: Any  # values that must repeat exactly for (seed, input)
    achieved: float  # sum of achieved completion times (makespan / JCT)
    bound: float  # sum of their provable lower bounds
    #: per-layer rate metric of a phase -> (wall seconds of the phase
    #: inside the segment, work units it did)
    phases: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: per-operation wall latencies (serve: one per request), seconds
    latencies: Sequence[float] = ()
    #: counts read from the program's public statistics
    counts: Dict[str, int] = field(default_factory=dict)


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    #: what ``work_per_s`` counts and what one ``op_ms_p50`` sample is
    unit = ""
    op = ""
    #: row of the traced table that takes wall minus every other row
    residual = "bench.other"
    #: ``achieved / attempted`` of a segment is a mean makespan
    has_makespans = False
    #: environment backend, where the workload chooses one
    backend = ""

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.size = size
        self.cycle = 1
        self.trace_segments = int(size["trace_segments"])
        #: set by the runner during the traced pass (for ``bench.*`` spans)
        self.tracer: Any = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed per-segment construction."""

    def run(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> Segment:
        raise NotImplementedError

    def close(self) -> Tuple[int, int, Dict[str, int]]:
        """Tear down; ``(attempted, failed, counts)`` of closing checks."""
        return 0, 0, {}

    def extras(self, probe: Any) -> Dict[str, float]:
        """Extra per-layer measurements made only in the traced run."""
        return {}

    def _seeds(self, salt: int, count: int) -> List[int]:
        """``count`` input seeds derived from ``--seed`` and a salt."""
        state = np.random.SeedSequence([self.seed, salt]).generate_state(count)
        return [int(s) for s in state]


# ---------------------------------------------------------------------- #
# spear_plan / mcts_plan / mcts_wave
# ---------------------------------------------------------------------- #

_DAG_SALT = {"spear_plan": 11, "mcts_plan": 12, "mcts_wave": 12}  # mcts_* share DAGs


class PlanWorkload(Workload):
    """One ``Scheduler.plan(ScheduleRequest(graph))`` per segment."""

    unit = "iterations"
    op = "plan"
    has_makespans = True

    def __init__(self, name: str, seed: int, size: Dict[str, Any]) -> None:
        super().__init__(seed, size)
        self.name = name
        self.cycle = int(size["dags"])
        self.backend = "default"  # mcts_wave: "array" while EnvConfig has the field

    def setup(self) -> None:
        import repro
        import repro.metrics  # validate_schedule is looked up through it

        self.repro = repro
        env = repro.EnvConfig(process_until_completion=True)
        if self.name == "mcts_wave" and "backend" in repro.EnvConfig.__dataclass_fields__:
            # Waves need lanes the kernel can batch; when a later change
            # leaves one backend, the default is that backend.
            env = replace(env, backend="array")
            self.backend = "array"
        self.env = env
        self.capacities = tuple(env.cluster.capacities)
        if self.name == "spear_plan":
            from repro.rl.checkpoints import load_policy_checkpoint

            self.network = load_policy_checkpoint(DATA / "spear_mlp.npz")
            recorded = (DATA / "spear_mlp.sha256").read_text().strip()
            if params_digest(self.network.params) != recorded:
                raise RuntimeError(
                    "perfbench/data/spear_mlp.npz does not match spear_mlp.sha256; "
                    "regenerate both with perfbench/data/make_checkpoint.py"
                )
        size = self.size
        self.graphs = [
            self._dag(size["tasks"], s) for s in self._seeds(_DAG_SALT[self.name], self.cycle)
        ]
        self.bounds = [makespan_lower_bound(g, self.capacities) for g in self.graphs]
        # Warm-up: one small plan through the same scheduler stack.
        warm = self._dag(max(6, size["tasks"] // 5), self._seeds(13, 1)[0])
        self._build(0).plan(repro.ScheduleRequest(warm))
        self.scheduler: Any = None

    def _dag(self, tasks: int, seed: int) -> Any:
        config = self.repro.WorkloadConfig(num_tasks=tasks)
        return self.repro.random_layered_dag(config, seed=seed)

    def _build(self, plan_seed: int) -> Any:
        """A fresh scheduler: its RNG stream, and so the plan, depends on
        the input alone, not on how many plans ran before it."""
        size = self.size
        if self.name == "spear_plan":
            return self.repro.make_scheduler(
                f"spear:budget={size['budget']},min_budget={size['min_budget']}",
                self.env,
                network=self.network,
                seed=plan_seed,
            )
        if self.name == "mcts_plan":
            return self.repro.make_scheduler(
                f"mcts:budget={size['budget']},min_budget={size['min_budget']},"
                f"seed={plan_seed}",
                self.env,
            )
        config = self.repro.MctsConfig(
            initial_budget=size["budget"],
            min_budget=size["min_budget"],
            rollout_batch=size["rollout_batch"],
        )
        return self.repro.MctsScheduler(config, self.env, seed=plan_seed)

    def prepare(self, index: int) -> None:
        self.scheduler = self._build(index)

    def run(self, index: int) -> Any:
        return self.scheduler.plan(self.repro.ScheduleRequest(self.graphs[index]))

    def _checked(self, schedule: Any, graph: Any, bound: int) -> bool:
        try:
            self.repro.metrics.validate_schedule(schedule, graph, self.capacities)
        except self.repro.errors.ReproError:
            return False
        return schedule.num_tasks == graph.num_tasks and schedule.makespan >= bound

    def check(self, index: int, output: Any) -> Segment:
        graph, bound = self.graphs[index], self.bounds[index]
        ok = self._checked(output, graph, bound)
        stats = self.scheduler.last_statistics
        counts = {
            "mcts.iterations": stats.iterations,
            "mcts.rollouts": stats.rollouts,
            "mcts.decisions": stats.decisions,
        }
        return Segment(
            work=stats.iterations,
            attempted=1,
            failed=0 if ok else 1,
            exact=[output.makespan, stats.iterations, stats.rollouts, stats.decisions],
            achieved=float(output.makespan),
            bound=float(bound),
            counts=counts,
        )

    def extras(self, probe: Any) -> Dict[str, float]:
        """Table I's shape: plan time against DAG size, untraced."""
        from .calib import bracket

        sizes = self.size.get("scaling")
        if not sizes:
            return {}
        out: Dict[str, float] = {}
        times = []
        for n, dag_seed in zip(sizes, self._seeds(14, len(sizes))):
            graph = self._dag(n, dag_seed)
            scheduler = self._build(0)
            calibrated, _, schedule = bracket(
                probe, lambda: scheduler.plan(self.repro.ScheduleRequest(graph))
            )
            bound = makespan_lower_bound(graph, self.capacities)
            if not self._checked(schedule, graph, bound):
                raise RuntimeError(f"scaling pass: invalid plan at n={n}")
            times.append(calibrated)
        full = SIZES[self.name]["full"]["scaling"]
        for label, seconds in zip(full, times):
            out[f"mcts.plan_s_n{label}"] = seconds
        logs_n = [math.log(n) for n in sizes]
        logs_t = [math.log(t) for t in times]
        mean_n, mean_t = sum(logs_n) / len(sizes), sum(logs_t) / len(sizes)
        out["mcts.scale_exponent"] = sum(
            (a - mean_n) * (b - mean_t) for a, b in zip(logs_n, logs_t)
        ) / sum((a - mean_n) ** 2 for a in logs_n)
        return out


# ---------------------------------------------------------------------- #
# train_epoch
# ---------------------------------------------------------------------- #


class TrainWorkload(Workload):
    """``repro train``'s inner loop: one REINFORCE epoch on the MLP policy
    followed by one PPO epoch on the GNN policy per segment.

    Parameters move with every epoch, so the distinct inputs of a cycle
    are epochs 0..rounds-1 of trainers rebuilt at the start of each
    cycle; epoch ``k`` of every cycle then repeats exactly.
    """

    name = "train_epoch"
    unit = "trajectories"
    op = "round"

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        super().__init__(seed, size)
        self.cycle = int(size["rounds"])

    def setup(self) -> None:
        from repro.config import EnvConfig, TrainingConfig, WorkloadConfig
        from repro.core.pipeline import (
            TRAINER_CLASSES,
            default_graph_network,
            default_network,
            training_graphs,
        )

        self.env = EnvConfig(process_until_completion=True)
        capacities = tuple(self.env.cluster.capacities)
        self._trainers = TRAINER_CLASSES
        self._networks = {"reinforce": default_network, "ppo": default_graph_network}
        self.training: Dict[str, Any] = {}
        self.graphs: Dict[str, Any] = {}
        self.bound_sum: Dict[str, float] = {}
        graph_seeds = self._seeds(21, 2)
        for (algo, shape), graph_seed in zip(
            (("reinforce", self.size["reinforce"]), ("ppo", self.size["ppo"])), graph_seeds
        ):
            config = TrainingConfig(
                num_examples=shape["graphs"],
                example_num_tasks=shape["tasks"],
                rollouts_per_example=shape["rollouts"],
                batch_size=4,
            )
            graphs = training_graphs(config, WorkloadConfig(), seed=graph_seed)
            self.training[algo] = config
            self.graphs[algo] = graphs
            # every graph is rolled out ``rollouts`` times an epoch
            self.bound_sum[algo] = float(
                shape["rollouts"]
                * sum(makespan_lower_bound(g, capacities) for g in graphs)
            )
        self.trainers: Dict[str, Any] = {}
        # Warm-up: one epoch of each trainer on its first graph.
        for algo in ("reinforce", "ppo"):
            config = replace(self.training[algo], num_examples=1, rollouts_per_example=2)
            self._trainer(algo, config, self.graphs[algo][:1]).train_epoch(0)

    def _trainer(self, algo: str, config: Any, graphs: Any) -> Any:
        net_seed, train_seed = self._seeds(22 if algo == "reinforce" else 23, 2)
        network = self._networks[algo](self.env, seed=net_seed)
        return self._trainers[algo](
            network, graphs, env_config=self.env, training=config, seed=train_seed
        )

    def prepare(self, index: int) -> None:
        if index == 0:
            for algo in ("reinforce", "ppo"):
                self.trainers[algo] = self._trainer(
                    algo, self.training[algo], self.graphs[algo]
                )

    def run(self, index: int) -> Any:
        t0 = time.perf_counter()
        first = self.trainers["reinforce"].train_epoch(index)
        t1 = time.perf_counter()
        second = self.trainers["ppo"].train_epoch(index)
        t2 = time.perf_counter()
        return (first, t1 - t0), (second, t2 - t1)

    def check(self, index: int, output: Any) -> Segment:
        failed = 0
        exact: List[Any] = []
        achieved = bound = 0.0
        phases: Dict[str, Tuple[float, int]] = {}
        work = 0
        for algo, (stats, seconds) in zip(("reinforce", "ppo"), output):
            expected = (
                self.training[algo].num_examples
                * self.training[algo].rollouts_per_example
            )
            values = (stats.mean_makespan, stats.mean_entropy, stats.mean_loss)
            if not all(math.isfinite(v) for v in values):
                failed += 1
            elif stats.num_trajectories != expected or stats.epoch != index:
                failed += 1
            elif stats.mean_makespan * expected < self.bound_sum[algo]:
                failed += 1
            exact.append(
                [stats.best_makespan, stats.worst_makespan, stats.num_trajectories]
                + [float(v).hex() for v in values]
            )
            achieved += stats.mean_makespan * stats.num_trajectories
            bound += self.bound_sum[algo]
            phases[f"train.{algo}_traj_per_s"] = (seconds, stats.num_trajectories)
            work += stats.num_trajectories
        return Segment(
            work=work, attempted=2, failed=failed, exact=exact,
            achieved=achieved, bound=bound, phases=phases,
        )


# ---------------------------------------------------------------------- #
# stream_sim
# ---------------------------------------------------------------------- #


class StreamWorkload(Workload):
    """One round = the three simulators over the same generated load:
    open-system streaming, a 4-shard federation with stealing, and a
    closed batch under crash + transient faults with retries.  No search
    and no network: sim kernel, dispatch, rankers, routing, injection."""

    name = "stream_sim"
    unit = "jobs"
    op = "round"

    def setup(self) -> None:
        from repro.config import ClusterConfig
        from repro.faults import FaultPlan, MachineCrash, RetryPolicy, TransientFaults
        from repro.federation import FederatedStreamingSimulator, ShardSpec
        from repro.online import ArrivingJob, OnlineSimulator, sjf_ranker
        from repro.streaming import PoissonProcess, StreamingSimulator, layered_job_factory

        size = self.size
        stream_seed, online_seed, fault_seed = self._seeds(31, 3)
        factory = layered_job_factory()
        self.ranker = sjf_ranker

        def build(jobs: int, online_jobs: int) -> Dict[str, Any]:
            process = PoissonProcess(size["rate"], jobs, factory, seed=stream_seed)
            staggered = [
                ArrivingJob(size["online_gap"] * i, factory(i, online_seed + i))
                for i in range(online_jobs)
            ]
            last = size["online_gap"] * online_jobs
            plan = FaultPlan(
                crashes=(
                    MachineCrash(0, last // 5, (6, 6), recover_at=last // 5 + 40),
                    MachineCrash(1, last // 2, (4, 4), recover_at=last // 2 + 60),
                ),
                transient=TransientFaults(0.1),
                retry=RetryPolicy(max_attempts=6, backoff_base=1, backoff_cap=8),
                seed=fault_seed,
            )
            return dict(process=process, staggered=staggered, plan=plan)

        self.streaming = StreamingSimulator(ClusterConfig(capacities=(20, 20), horizon=8))
        self.federation = FederatedStreamingSimulator(
            [ShardSpec((5, 5), sjf_ranker) for _ in range(size["shards"])],
            router="least-load",
            steal_threshold=1,
        )
        self.online = OnlineSimulator(ClusterConfig(capacities=(20, 20), horizon=8))
        self.load = build(size["jobs"], size["online_jobs"])
        # Lower bounds per job, from the generated DAGs alone.
        stream_graphs = [job.graph for job in self.load["process"].jobs()]
        self.stream_tasks = sum(g.num_tasks for g in stream_graphs)
        self.bounds = {
            "streaming": [makespan_lower_bound(g, (20, 20)) for g in stream_graphs],
            "federation": [makespan_lower_bound(g, (5, 5)) for g in stream_graphs],
            "online": [
                makespan_lower_bound(job.graph, (20, 20)) for job in self.load["staggered"]
            ],
        }
        self.online_tasks = sum(job.graph.num_tasks for job in self.load["staggered"])
        # Warm-up: the same three simulators over a short stream.
        self._round(build(min(20, size["jobs"]), min(6, size["online_jobs"])))

    def _round(self, load: Dict[str, Any]) -> Any:
        t0 = time.perf_counter()
        streamed = self.streaming.run(load["process"], self.ranker)
        t1 = time.perf_counter()
        federated = self.federation.run(load["process"])
        t2 = time.perf_counter()
        batch = self.online.run(load["staggered"], self.ranker, faults=load["plan"])
        t3 = time.perf_counter()
        return (streamed, t1 - t0), (federated, t2 - t1), (batch, t3 - t2)

    def run(self, index: int) -> Any:
        return self._round(self.load)

    def _tally(self, outcomes: Any, bounds: List[int], expected: int) -> Tuple[int, int, float, float]:
        """``(completed, failed, sum JCT, sum bound)`` with conservation:
        every generated job is reported exactly once, completed, and no
        sooner than its critical path and work allow."""
        seen = {o.job_index for o in outcomes}
        failed = expected - len(seen) + (len(outcomes) - len(seen))
        completed = 0
        achieved = bound = 0.0
        for o in outcomes:
            jct = o.completion_time - o.arrival_time
            if o.failed or jct < bounds[o.job_index]:
                failed += 1
                continue
            completed += 1
            achieved += jct
            bound += bounds[o.job_index]
        return completed, failed, achieved, bound

    def check(self, index: int, output: Any) -> Segment:
        (streamed, s_sec), (federated, f_sec), (batch, o_sec) = output
        jobs, online_jobs = self.size["jobs"], self.size["online_jobs"]
        s_done, s_bad, s_jct, s_lb = self._tally(
            streamed.online.outcomes, self.bounds["streaming"], jobs
        )
        aggregate = federated.aggregate
        f_done, f_bad, f_jct, f_lb = self._tally(
            aggregate.online.outcomes, self.bounds["federation"], jobs
        )
        o_done, o_bad, o_jct, o_lb = self._tally(
            batch.outcomes, self.bounds["online"], online_jobs
        )
        # A rejected or never-arrived job has no outcome: ``_tally`` counts
        # it as missing, so conservation covers rejections too.
        failed = s_bad + f_bad + o_bad
        exact = [
            json.dumps(streamed.metrics_dict(), sort_keys=True),
            json.dumps(federated.metrics_dict(), sort_keys=True),
            [(o.job_index, o.completion_time, o.retries) for o in batch.outcomes],
        ]
        return Segment(
            work=s_done + f_done + o_done,
            attempted=2 * jobs + online_jobs,
            failed=failed,
            exact=exact,
            achieved=s_jct + f_jct + o_jct,
            bound=s_lb + f_lb + o_lb,
            phases={
                "streaming.jobs_per_s": (s_sec, s_done),
                "federation.jobs_per_s": (f_sec, f_done),
                "online.jobs_per_s": (o_sec, o_done),
            },
            counts={
                "sim.jobs": s_done + f_done + o_done,
                "sim.tasks": 2 * self.stream_tasks + self.online_tasks,
                "federation.steals": len(federated.steals),
                "faults.retries": batch.total_retries,
            },
        )


# ---------------------------------------------------------------------- #
# serve_roundtrip
# ---------------------------------------------------------------------- #


class ServeWorkload(Workload):
    """Closed loop against an in-process ``SchedulerService(tetris)``.

    ``connections`` persistent connections (2 = ``nproc``) each send
    their next ``schedule`` frame only after the reply to the previous
    one: callers of ``repro serve`` wait for their schedule.  Client and
    service share one event loop thread, planning runs in the one
    executor thread, so the process never has more runnable threads than
    cores.  One segment is a burst of one request per distinct DAG.
    """

    name = "serve_roundtrip"
    unit = "requests"
    op = "request"
    residual = "streaming.service"
    has_makespans = True

    def _span(self, name: str):
        """A ``bench.*`` span during the traced pass, nothing otherwise."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def setup(self) -> None:
        from repro import EnvConfig, ScheduleRequest, WorkloadConfig, make_scheduler
        from repro import random_layered_dag
        from repro.streaming import SchedulerService, protocol

        # Bound before the tracer patches the module: the client's codec
        # is ``bench.client`` time, not the service's.
        self._encode, self._decode = protocol.encode_frame, protocol.decode_frame
        self._protocol = protocol
        size = self.size
        env = EnvConfig(process_until_completion=True)
        self.capacities = tuple(env.cluster.capacities)
        workload = WorkloadConfig(num_tasks=size["tasks"])
        self.graphs = [
            random_layered_dag(workload, seed=s) for s in self._seeds(41, size["dags"])
        ]
        self.bounds = [makespan_lower_bound(g, self.capacities) for g in self.graphs]
        self.frames = [
            protocol.schedule_frame(f"r{i}", ScheduleRequest(graph=g))
            for i, g in enumerate(self.graphs)
        ]
        self.loop = asyncio.new_event_loop()
        self.executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="plan")
        self.loop.set_default_executor(self.executor)
        self.service = SchedulerService(make_scheduler("tetris", env), port=0)
        self.sent = 0
        self.bytes_in = self.bytes_out = 0

        async def connect() -> List[Any]:
            host, port = await self.service.start()
            return [
                await asyncio.open_connection(host, port)
                for _ in range(size["connections"])
            ]

        self.connections = self.loop.run_until_complete(connect())
        # Warm-up: one request down each connection.
        warm = list(range(min(len(self.frames), size["connections"])))
        self.loop.run_until_complete(self._burst(warm))

    async def _burst(self, indices: Sequence[int]) -> Tuple[List[Any], List[float]]:
        replies: List[Any] = [None] * len(self.frames)
        latencies = [0.0] * len(self.frames)
        lanes = len(self.connections)

        async def client(lane: int) -> None:
            reader, writer = self.connections[lane]
            for index in indices[lane::lanes]:
                start = time.perf_counter()
                with self._span("bench.client"):
                    data = self._encode(self.frames[index])
                writer.write(data)
                await writer.drain()
                line = await reader.readline()
                with self._span("bench.client"):
                    replies[index] = self._decode(line) if line else None
                latencies[index] = time.perf_counter() - start
                self.bytes_in += len(data)
                self.bytes_out += len(line)

        await asyncio.gather(*(client(lane) for lane in range(lanes)))
        self.sent += len(indices)
        return replies, latencies

    def run(self, index: int) -> Any:
        return self.loop.run_until_complete(self._burst(range(len(self.frames))))

    def check(self, index: int, output: Any) -> Segment:
        replies, latencies = output
        failed = 0
        makespans: List[int] = []
        for i, reply in enumerate(replies):
            tasks = self.graphs[i].num_tasks
            ok = (
                isinstance(reply, dict)
                and reply.get("type") == self._protocol.REPLY
                and reply.get("id") == f"r{i}"
                and len(reply["schedule"]["placements"]) == tasks
                and len({p["task_id"] for p in reply["schedule"]["placements"]}) == tasks
            )
            makespan = (
                max(p["finish"] for p in reply["schedule"]["placements"]) if ok else 0
            )
            if not ok or makespan < self.bounds[i]:
                failed += 1
            makespans.append(makespan)
        return Segment(
            work=len(replies) - failed,
            attempted=len(replies),
            failed=failed,
            exact=makespans,
            achieved=float(sum(makespans)),
            bound=float(sum(self.bounds)),
            latencies=latencies,
        )

    def close(self) -> Tuple[int, int, Dict[str, int]]:
        """Drain: the ack must account for every request sent.

        Client sockets are closed before the service stops: ``stop()``
        with live connections makes ``service._handle`` print a
        ``CancelledError`` traceback (see README, a lead for the serve
        hardening item of the roadmap)."""
        protocol = self._protocol

        async def drain() -> Dict[str, Any]:
            for _reader, writer in self.connections[1:]:
                writer.close()
                await writer.wait_closed()
            await asyncio.sleep(0.01)  # let their handlers see end-of-file
            reader, writer = self.connections[0]
            writer.write(self._encode({"type": protocol.DRAIN}))
            await writer.drain()
            ack = self._decode(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await self.service.serve_until_drained()
            await self.service.stop()
            return ack

        try:
            ack = self.loop.run_until_complete(drain())
        finally:
            self.executor.shutdown(wait=True)
            self.loop.close()
        stats = self.service.stats
        ok = (
            ack.get("type") == protocol.DRAIN_ACK
            and ack.get("served") == self.sent
            and ack.get("errors") == 0
            and stats.served == self.sent
        )
        counts = {
            "serve.batches": stats.batches,
            "serve.max_batch": stats.max_batch,
            "serve.bytes_in": self.bytes_in,
            "serve.bytes_out": self.bytes_out,
        }
        return 1, 0 if ok else 1, counts


# ---------------------------------------------------------------------- #

WORKLOADS = tuple(SIZES)


def make_workload(name: str, seed: int, scale: str = "full") -> Workload:
    """The named workload at ``scale`` (``"full"`` or ``"smoke"``)."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; expected one of {list(WORKLOADS)}")
    size = SIZES[name][scale]
    if name == "train_epoch":
        return TrainWorkload(seed, size)
    if name == "stream_sim":
        return StreamWorkload(seed, size)
    if name == "serve_roundtrip":
        return ServeWorkload(seed, size)
    return PlanWorkload(name, seed, size)
