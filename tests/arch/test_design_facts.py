"""Design facts, pinned where a session can run them.

Each test states one decision the code base made by *deleting* the
alternative — one environment, one tree walk, one episode loop, one
time-advancing loop — and fails when the alternative comes back.  (These
used to be inline-Python and grep steps of ``.github/workflows/ci.yml``
that only CI could run; the settable surface itself is pinned by
``test_config_surface.py``.)
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def grep(pattern, *roots):
    """``path:line`` of every match of ``pattern`` in the ``.py`` files
    under ``roots`` (a root that is a file is searched whatever its
    suffix)."""
    regex = re.compile(pattern)
    hits = []
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            lines = path.read_text(encoding="utf-8").splitlines()
            hits += [
                f"{path.relative_to(REPO)}:{number}"
                for number, line in enumerate(lines, start=1)
                if regex.search(line)
            ]
    return hits


def files_of(hits):
    return sorted({hit.rsplit(":", 1)[0] for hit in hits})


def test_one_environment_no_backend_switch():
    assert not grep(r"make_env\(|available_backends|ArrayClusterState", REPO / "src")
    assert files_of(grep("ArraySchedulingEnv", REPO / "src")) == [
        "src/repro/envarr/env.py"
    ]


def test_one_tree_walk():
    # Nodes store statistics, the search owns the one environment and has
    # one select/expand/backpropagate loop; nothing selects another.  A
    # descent replays its path on a clone of the root, so no undo log
    # exists to restore one.
    from repro.mcts import Node, search

    assert not grep("state_restore", REPO / "src", REPO / "README.md", REPO / "examples")
    assert not grep(
        r"StepUndo|def apply\(|def undo\(|undo_start|undo_advance|undos_taken",
        REPO / "src",
    )
    assert "env" not in Node.__slots__
    callers = [
        fn.name
        for fn in ast.walk(ast.parse(inspect.getsource(search)))
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Attribute) and node.attr == "best_child"
            for node in ast.walk(fn)
        )
    ]
    assert len(callers) == 1, callers


def test_policy_memo_and_fused_playout_are_not_options():
    # The memo is always on inside a Spear search and inside a trainer's
    # rollout group, and off everywhere else; a network-guided rollout is
    # always the fused playout.  No environment
    # variable selects either (config fields, spec keys and constructor
    # arguments: test_config_surface.py), and the select -> step loop the
    # playout replaced is gone from the rollout.
    from repro.core.guidance import NetworkRollout

    assert ".select(" not in inspect.getsource(NetworkRollout.rollout)
    assert not grep(r"os\.environ|getenv", SRC / "rl", SRC / "core", SRC / "env")
    # ...and the search talks to its policies through their public hooks.
    assert not grep(r"self\.(rollout|expansion)\._", SRC / "mcts" / "search.py")


def test_a_list_heuristic_is_a_ranking_rule_on_the_one_episode_loop():
    import repro.online as online
    from repro.mcts.policies import _PolicyRollout
    from repro.schedulers import base, policies, rules

    for runner in (base.run_policy, _PolicyRollout.rollout, base.GreedyPolicy.playout):
        assert ".select(" not in inspect.getsource(runner), runner
    # Each heuristic is one key in the rule table, read by both executors:
    # an offline policy is the GreedyPolicy over its rule, and the online
    # rankers are the table's own objects.
    for name, ranker in rules.RANKERS.items():
        policy = policies.greedy_policy(name)
        assert policy.ranker is ranker and policy.name == name
    for name in ("fifo", "sjf", "cp", "tetris"):
        assert getattr(online, f"{name}_ranker") is rules.RANKERS[name]
    assert online.plan_priority_ranker is rules.plan_priority_ranker
    keys = grep(r"^def (?!resolve_)\w+_ranker\(", SRC)
    assert files_of(keys) == ["src/repro/schedulers/rules.py"]
    # Tetris's loop is the one specialised evaluation of a rule.
    assert files_of(grep(r"\(GreedyPolicy\):", SRC)) == ["src/repro/schedulers/policies.py"]
    assert set(vars(policies.TetrisPolicy)) & {"select", "playout"} == set()
    assert files_of(grep(r"def choose\(", SRC)) == [
        "src/repro/schedulers/base.py",
        "src/repro/schedulers/policies.py",
    ]
    # The default Policy.playout is the only select -> step episode loop
    # left where episodes are run.
    loops = grep(
        r"step\(.*\.select\(",
        SRC / "schedulers",
        SRC / "mcts" / "policies.py",
        SRC / "experiments",
    )
    assert files_of(loops) == ["src/repro/schedulers/base.py"] and len(loops) == 1
    assert not grep("_fitting_indices", REPO / "src")


def test_trainers_record_through_the_fused_playout():
    # Rollout trainers collect through NetworkPolicyBase.playout with a
    # recorder; the per-step recording select is gone.
    from repro.rl import trainer, trajectories

    assert not grep(r"select_with_trace|record=", REPO / "src")
    assert ".select(" not in inspect.getsource(trajectories)
    assert ".select(" not in inspect.getsource(trainer)


def test_message_passing_has_no_scatter_and_ppo_one_forward():
    # The np.add.at scatter lives only in the tests that compare against
    # it, and a PPO minibatch reads its ratios off the forward pass of the
    # backward it feeds (no second forward in the loop).
    from repro.rl.ppo import PpoTrainer

    assert not grep(r"add\.at|ufunc\.at", SRC / "rl")
    update = ast.parse(textwrap.dedent(inspect.getsource(PpoTrainer._update_batch)))
    in_loops = [
        node.attr
        for loop in ast.walk(update)
        if isinstance(loop, ast.For)
        for node in ast.walk(loop)
        if isinstance(node, ast.Attribute)
    ]
    assert "policy_gradient_steps" in in_loops, in_loops
    assert "step_probabilities" not in in_loops, in_loops


def test_a_step_batch_is_one_graph_and_pi_old_is_recorded():
    # The graph policy runs a step batch as one pass over the disjoint
    # union of its states' graphs; the per-graph grouping is gone, and
    # PPO reads pi_old from the rows its rollouts drew from instead of
    # forwarding the batch for it.
    from repro.rl.ppo import PpoTrainer

    assert not grep(r"_group_positions|_group_probabilities", SRC)
    assert not grep(r"id\(.*\.(arrays|graph)\)", SRC / "rl")
    assert "step_probabilities" not in inspect.getsource(PpoTrainer._update_batch)


def test_exactly_one_loop_advances_simulated_time():
    hits = grep(r"\.tick_to\(", SRC / "online", SRC / "streaming", SRC / "federation")
    assert len(hits) == 1, hits


def test_one_process_pool_site():
    # Root-parallel MCTS is the only code that fans work out to other
    # processes, and tests/unit/mcts/test_parallel.py pins that its pool
    # plans what its sequential loop plans.  A second pool site brings
    # its own pin.
    hits = grep(r"multiprocessing|ProcessPoolExecutor", REPO / "src")
    assert files_of(hits) == ["src/repro/mcts/parallel.py"], hits


def test_waves_play_their_lanes_with_the_scalar_playout():
    # A pure-MCTS wave plays each collected lane with the one fused
    # random playout; the NumPy lockstep kernel, its lane snapshot and the
    # batched rollout hook were deleted after losing on every measured
    # shape (DESIGN.md Sec. 15.4).
    assert not grep(r"BatchedPlayouts|lane_snapshot|rollout_many", REPO / "src")


def test_native_draws_live_in_utils_rng():
    # The random playout draws through repro.utils.rng.bounded_draw, which
    # equals Generator.integers bit for bit
    # (tests/property/test_native_draws.py) but takes no Generator lock.
    # No other module reaches a bit generator's native functions.
    hits = grep(r"\bctypes\b|next_uint(32|64)|next_double", REPO / "src")
    assert files_of(hits) == ["src/repro/utils/rng.py"], hits


def test_one_graph_featurisation():
    # The graph policy's node table is the window builder's task rows and
    # its edges come from graph.children in ascending id; the NumPy copy
    # of the Sec. III-D features and the stacked-MLP imitation dataset are
    # gone.  repro.envarr is only the import alias perfbench's frozen
    # targets name.
    assert not grep(r"^\s*(from|import)\s+\S*envarr", REPO / "src")
    assert sorted(path.name for path in (SRC / "envarr").glob("*.py")) == [
        "__init__.py",
        "env.py",
    ]
    assert files_of(grep(r'"policy_mlp"', SRC)) == [
        "src/repro/rl/checkpoints.py",
        "src/repro/rl/network.py",
    ]


def test_one_verdict_rule():
    # Keep-or-delete calls and the tournament go through
    # repro.metrics.stats.paired_verdict; the scipy sign test and the
    # seed-sweep replication harness were folded into it.
    assert not grep(r"sign_test|binomtest|replicate\(", REPO / "src")


def test_spear_rolls_out_to_termination():
    # Every Spear simulation plays to the end, as in the paper
    # (Sec. III-A).  Value-truncated rollouts, their dataset trainer and
    # their checkpoint kind were deleted after losing at equal budget and
    # at equal plan time (DESIGN.md Sec. 16.8).
    assert not grep(
        r"TruncatedRollout|value_training|value_checkpoint",
        REPO / "src",
        REPO / "examples",
    )


def test_every_experiment_plans_through_run_tournament():
    # Every figure is one round-robin tournament: the per-figure
    # plan -> validate -> append loops were folded into run_tournament,
    # and the batches they scheduled come from one generator.
    experiments = SRC / "experiments"
    assert files_of(grep(r"\.plan\(|validate_schedule\(", experiments)) == [
        "src/repro/experiments/tournament.py"
    ]
    batch_sites = []
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        batch_sites += [
            str(path.relative_to(REPO))
            for number, line in enumerate(lines)
            if "spawn(" in line
            and any("random_layered_dag" in near for near in lines[max(0, number - 2) : number + 3])
        ]
    assert sorted(set(batch_sites)) == ["src/repro/dag/generators.py"]


def test_graphene_packs_a_step_function():
    # Graphene's virtual resource-time space is a step function of usage
    # over time, kept where Graphene plans; the dense NumPy
    # (resource, slot) grid it replaced is the oracle in
    # tests/property/test_cluster_properties.py, not library code.
    assert not (SRC / "cluster" / "timeline.py").exists()
    assert not grep("ResourceTimeSpace", REPO / "src", REPO / "examples")
    graphene = SRC / "schedulers" / "graphene.py"
    assert not grep(r"^\s*(import numpy|from numpy)", graphene)


def test_one_telemetry_switch():
    # session() is the one way to turn telemetry on; every component reads
    # the active pipeline, so no constructor or entry point takes a
    # pipeline config.  The per-config pipelines, the global
    # configure/disable pair and the stderr-summary sink went with it, and
    # a schedule is checked only by the verify=true wrapper and the
    # verifier, not by an environment hook or a second make_scheduler flag.
    import importlib
    import pkgutil

    import repro
    from repro import telemetry
    from repro.env import SchedulingEnv
    from repro.schedulers.registry import make_scheduler

    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isclass(obj):
                target = obj.__init__
            elif inspect.isfunction(obj):
                target = obj
            else:
                continue
            try:
                params = inspect.signature(target).parameters.values()
            except (TypeError, ValueError):
                continue
            for param in params:
                # compose_scheduler's bool is the telemetry=true spec key
                # (a TelemetryScheduler wrapper), not a pipeline choice.
                takes_config = "TelemetryConfig" in str(param.annotation)
                if takes_config or (param.name == "telemetry" and param.annotation not in ("bool", bool)):
                    offenders.append(f"{info.name}.{name}({param.name})")
    offenders.remove("repro.telemetry.runtime.Telemetry(config)")
    offenders.remove("repro.telemetry.runtime.session(config)")
    assert not offenders, offenders
    for gone in ("for_config", "configure", "disable", "StderrSummarySink"):
        assert not hasattr(telemetry, gone), gone
        assert not hasattr(telemetry.runtime, gone), gone
    assert not hasattr(telemetry.sinks, "StderrSummarySink")
    assert not hasattr(SchedulingEnv, "verify_terminal_state")
    assert "validate" not in inspect.signature(make_scheduler).parameters


def test_one_golden_harness():
    # Every golden file is a registered golden of tests/golden: one case
    # registry, one parametrised test and one regenerate command, so no
    # per-golden generator script and no file-path module loader remain.
    from tests.golden import GOLDENS, files

    data = REPO / "tests" / "data"
    assert not sorted(data.glob("make_*.py"))
    # (Bracketed so that this line does not match itself.)
    assert not grep(r"spec_from_file_locatio[n]", REPO / "tests")
    registered = [file for name in GOLDENS for file in files(name)]
    assert len(registered) == len(set(registered)), registered
    assert sorted(registered) == sorted(p.name for p in data.glob("*golden*.json"))


def test_running_entries_are_plain_tuples():
    # The running heap holds plain (finish, task_id, demands) tuples: every
    # writer pushes one, and only ClusterState.running_tasks() builds
    # RunningTask records, off the hot path.  No record is built by
    # calling tuple.__new__ on the class.
    import numpy as np
    import pytest

    from repro.cluster import ClusterState
    from repro.config import WorkloadConfig
    from repro.dag.generators import random_layered_dag
    from repro.env import SchedulingEnv
    from repro.errors import EnvironmentStateError

    # (Bracketed so that this line does not match itself.)
    assert not grep(r"tuple\.__ne[w]__", REPO / "src")

    def assert_plain(heap):
        assert heap and {type(entry) for entry in heap} == {tuple}

    cluster = ClusterState((10, 10))
    cluster.start(1, (2, 3), 4)
    assert_plain(cluster._running)

    env = SchedulingEnv(random_layered_dag(WorkloadConfig(num_tasks=20), seed=1))
    env.step(0)
    assert_plain(env.cluster._running)

    random_env = env.clone()
    with pytest.raises(EnvironmentStateError, match="step limit"):
        random_env.random_playout(np.random.default_rng(0), limit=3)
    assert_plain(random_env.cluster._running)

    policy_env = env.clone()
    with pytest.raises(EnvironmentStateError, match="step limit"):
        policy_env.policy_playout(lambda actions: actions[0], None, limit=3)
    assert_plain(policy_env.cluster._running)


def test_a_shard_sweeps_only_after_a_change():
    # A dispatch round ends with no ready task that fits, so a shard is
    # swept again only after one of its events ran (or a job was admitted
    # or abandoned): a second round with nothing in between tests no fit.
    # The execution layer polls the kernel as a process only when its
    # shard has a fault plan (zero-delay retries are all it defers).
    from unittest import mock

    from repro.dag.generators import independent_tasks_dag
    from repro.faults import FaultPlan, MachineCrash
    from repro.online import ArrivingJob, cp_ranker, sjf_ranker, tetris_ranker
    from repro.online import policy as policy_module
    from repro.online.engine import ShardedEngine, ShardSpec
    from repro.telemetry import runtime

    crash = FaultPlan(crashes=(MachineCrash(0, 5, (2, 2), recover_at=9),), seed=1)
    for faults, processes in ((None, 1), (crash, 2)):
        for ranker in (sjf_ranker, cp_ranker, tetris_ranker):
            # Three (6, 6) tasks on (10, 10): one starts, two stay ready.
            graph = independent_tasks_dag([3, 3, 3], [(6, 6)] * 3)
            engine = ShardedEngine(
                [ShardSpec((10, 10), ranker, faults=faults)],
                iter([(0, ArrivingJob(0, graph))]),
                3,
                runtime.active(),
            )
            assert len(engine.kernel._processes) == processes
            engine.kernel.drain_due()
            (shard,) = engine.shards
            shard.policy.dispatch_round()
            (job,) = shard.execution.active.values()
            assert len(job.ready) == 2 and shard.execution.state.num_running == 1

            tests = []

            def counting_fits(demands, free, fits=policy_module.fits):
                tests.append(demands)
                return fits(demands, free)

            with mock.patch.object(policy_module, "fits", counting_fits):
                shard.policy.dispatch_round()
                assert tests == []
                shard.execution.fail_job(job, reason="abandoned")
                assert shard.execution.changed


def test_events_carry_their_handlers():
    # An event carries the callable that handles it, so the kernel keeps
    # no registry of kind strings and shards share it without namespacing
    # their events: no register() call, no *_KIND constant, no per-shard
    # kernel view and no clock wrapper.
    import importlib

    import pytest

    from repro.sim import Event, SimKernel

    layers = [SRC / name for name in ("sim", "cluster", "online", "federation")]
    assert not grep(r"\bregister\(|\b[A-Z]+_KIND\b", *layers)
    for gone in ("repro.online.kernelview", "repro.sim.clock"):
        with pytest.raises(ImportError):
            importlib.import_module(gone)
    assert not hasattr(SimKernel, "register")
    assert "handler" in Event.__dataclass_fields__
    assert "kind" not in Event.__dataclass_fields__


def test_a_finished_run_frees_by_refcount():
    # References in a shard point one way (the policy layer reads the
    # execution layer, which never refers back; each job carries its own
    # dispatch caches), and the engine makes the kernel drop its processes
    # and pending events and the arrival layer its pending arrival when a
    # run ends.  So with the cyclic collector off, the kernel, the arrival
    # layer, every shard's two layers and the work stealer are gone once
    # the facade returns or raises: a faulty batch whose crash timeline
    # outlives its jobs, a stream cut off by its horizon, a 4-shard
    # federation that steals, and a stream that exceeds its step cap.
    import dataclasses
    import gc
    import weakref
    from unittest import mock

    from repro.config import ClusterConfig
    from repro.errors import EnvironmentStateError
    from repro.faults import MachineCrash
    from repro.federation import FederatedStreamingSimulator
    from repro.online import OnlineSimulator, cp_ranker, sjf_ranker
    from repro.online.engine import ShardedEngine
    from repro.streaming import AdmissionConfig, StreamingSimulator, TraceArrivals
    from tests.golden import sim

    refs = {}
    run = ShardedEngine.run

    def watched_run(engine, max_steps, horizon=None, stealer=None):
        refs["kernel"] = weakref.ref(engine.kernel)
        refs["arrivals"] = weakref.ref(engine.workload)
        for shard in engine.shards:
            refs[f"shard{shard.id}.execution"] = weakref.ref(shard.execution)
            refs[f"shard{shard.id}.policy"] = weakref.ref(shard.policy)
        if stealer is not None:
            refs["stealer"] = weakref.ref(stealer)
        return run(engine, max_steps, horizon, stealer)

    cluster = ClusterConfig(capacities=sim.CAPACITIES)

    def batch():
        faults = sim.golden_faults()
        late = MachineCrash(1, 100_000, (3, 3), recover_at=100_010)
        faults = dataclasses.replace(faults, crashes=(faults.crashes[0], late))
        result = OnlineSimulator(cluster).run(
            sim.golden_stream(),
            cp_ranker,
            faults=faults,
            rescheduler=sim.golden_rescheduler(),
        )
        assert result.crashes == 1  # the late crash and its recovery stay queued

    def stream():
        result = StreamingSimulator(cluster).run(
            TraceArrivals(sim.open_stream()),
            sjf_ranker,
            admission=AdmissionConfig(max_concurrent=3, max_queue=2),
            horizon=50,
            faults=sim.streaming_faults(),
        )
        assert result.horizon_cutoff == 50

    def federation():
        result = FederatedStreamingSimulator(
            sim.federation_specs(), router="least-load", steal_threshold=1
        ).run(TraceArrivals(sim.open_stream()), horizon=50)
        assert result.steals

    def capped():
        # Caught by name, not by pytest.raises: a kept traceback would hold
        # the engine's frame, and the frame the engine.
        try:
            StreamingSimulator(cluster, max_steps=5).run(
                TraceArrivals(sim.open_stream()), sjf_ranker
            )
        except EnvironmentStateError as exc:
            assert "step cap" in str(exc)
        else:
            raise AssertionError("the step cap did not stop the run")

    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(ShardedEngine, "run", watched_run):
            for case in (batch, stream, federation, capped):
                refs.clear()
                case()
                assert "kernel" in refs
                alive = [name for name, ref in refs.items() if ref() is not None]
                assert alive == [], case.__name__
    finally:
        gc.enable()


def test_a_job_computes_features_only_when_read():
    # A job's graph features are computed when a ranker first reads them
    # and kept on the job; dispatch builds each ranker's context without
    # them.  Of the built-in rankers only cp reads them: an sjf stream and
    # a stealing 4-shard sjf federation (whose stolen jobs are rebuilt on
    # their thief) compute none, and a cp batch computes each job's once
    # and still runs as its golden says.
    import json
    from unittest import mock

    from repro.config import ClusterConfig
    from repro.federation import FederatedStreamingSimulator, ShardSpec
    from repro.online import execution, sjf_ranker
    from repro.streaming import (
        PoissonProcess,
        StreamingSimulator,
        TraceArrivals,
        layered_job_factory,
    )
    from tests.golden import expected, sim

    calls = []

    def counting(graph, compute=execution.compute_features):
        calls.append(graph)
        return compute(graph)

    process = PoissonProcess(0.5, 40, layered_job_factory(), seed=3)
    with mock.patch.object(execution, "compute_features", counting):
        StreamingSimulator(ClusterConfig(capacities=sim.CAPACITIES)).run(
            TraceArrivals(sim.open_stream()), sjf_ranker
        )
        federated = FederatedStreamingSimulator(
            [ShardSpec((5, 5), sjf_ranker) for _ in range(4)],
            router="least-load",
            steal_threshold=1,
        ).run(process)
        assert federated.steals
        assert calls == []
        batch = sim._run("fault_free", sim.golden_stream())
    assert len(calls) == len(sim.golden_stream())
    assert json.loads(json.dumps(batch)) == expected("sim", "fault_free")["result"]


def test_a_replan_is_told_the_residual_dag_and_the_live_capacities():
    # A replan hands the rescheduler what a planner reads: the job's
    # residual DAG (its tasks neither finished nor running, with their
    # runtimes, demands and the edges among them) and the capacities of
    # the cluster at that instant, crashed slots subtracted.  Each job is
    # replanned on admission, on its transient failures and after every
    # crash or recovery.
    from repro import WorkloadConfig, random_layered_dag
    from repro.faults import FaultPlan, MachineCrash, TransientFaults
    from repro.online import ArrivingJob, sjf_ranker
    from repro.online.engine import ShardedEngine, ShardSpec
    from repro.schedulers import make_scheduler
    from repro.schedulers.base import Scheduler
    from repro.telemetry import runtime

    class Recording(Scheduler):
        name = "recording"

        def __init__(self):
            self.cp = make_scheduler("cp")
            self.execution = None
            self.seen = []

        def plan(self, request):
            execution = self.execution
            running = {entry.task_id for entry in execution.state.running_tasks()}
            residuals = {
                job.index: job.graph.subgraph(
                    [
                        tid
                        for tid in job.graph.task_ids
                        if tid not in job.executed
                        and job.index * execution.offset + tid not in running
                    ]
                )
                for job in execution.active.values()
            }
            self.seen.append(
                (
                    [index for index, g in residuals.items() if g == request.graph],
                    request.graph.num_tasks,
                    request.cluster.capacities,
                    tuple(execution.state.capacities),
                )
            )
            return self.cp.plan(request)

    capacities = (20, 20)
    plan = FaultPlan(
        crashes=(
            MachineCrash(0, 8, (8, 8), recover_at=30),
            MachineCrash(1, 40, (5, 5), recover_at=60),
        ),
        transient=TransientFaults(probability=0.2),
        seed=3,
    )
    jobs = [
        ArrivingJob(5 * k, random_layered_dag(WorkloadConfig(num_tasks=12), seed=k))
        for k in range(4)
    ]
    recording = Recording()
    engine = ShardedEngine(
        [ShardSpec(capacities, sjf_ranker, recording, faults=plan)],
        iter(enumerate(jobs)),
        12,
        runtime.active(),
    )
    recording.execution = engine.shards[0].execution
    engine.run(1_000_000)

    seen = recording.seen
    assert all(len(jobs_matched) == 1 for jobs_matched, *_ in seen)
    assert all(told == live for *_, told, live in seen)
    assert {jobs_matched[0] for jobs_matched, *_ in seen} == set(range(len(jobs)))
    # Replans came on partly run jobs and on a crashed cluster.
    assert any(size < 12 for _, size, *_ in seen)
    assert any(told != capacities for *_, told, _ in seen)
