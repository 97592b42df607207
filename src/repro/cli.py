"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands::

    repro simulate   --scheduler tetris|mcts:budget=200 --tasks 50 --seed 0
    repro schedulers [--json]     (registry names + typed spec options)
    repro train      --epochs 50 --out spear.npz --seed 0 [--trace-out t.jsonl]
    repro trace      --out trace.json --seed 0 [--stats]
    repro trace      summary|export|top-spans run.jsonl   (telemetry traces)
    repro experiment fig6a|fig6b|fig7|fig8a|fig8b|fig9ab|fig9c|table1 \
                     [--paper-scale] [--seed N] [--trace-out run.jsonl]
    repro ablation   expansion-filters|budget-decay|max-value-ucb|...
    repro motivating
    repro compare    --schedulers tetris,sjf,cp,graphene,heft --jobs 5 \
                     --tasks 30 [--reference tetris] [--trace-out run.jsonl]
    repro online     --jobs 10 --faults crashes=2,transient=0.05 \
                     --reschedule heft [--verify-executed] [--check-recoveries]
    repro stream     --arrival poisson:rate=0.05,n=1000 --seed 0 \
                     [--max-concurrent 32 --max-queue 64] [--horizon 5000] \
                     [--metrics-out m.json] [--gate-p99 400] [--verify-executed]
    repro federate   --shards 2 --router least-load --scheduler heft \
                     [--steal-threshold 2] [--faults crashes=1] [--compare-global]
    repro serve      --scheduler tetris --port 7077 [--batch-max 16]
    repro serve      --smoke --requests 3 [--frames-out frames.jsonl]
    repro verify     schedule.json --graph graph.json [--capacities 20,20]
    repro bench      [--baseline benchmarks/baselines.json [--update-baselines]]

Every command prints a plain-text report to stdout and exits non-zero on
error: an invalid argument, or a named trace or checkpoint that cannot be
loaded, is a one-line error with exit 2.  ``online``, ``stream`` and
``federate`` declare the options they share once (``_SHARED_OPTIONS``)
and build their fault plans, reschedulers and admission limits through
the same functions; each keeps its own body and report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .config import ClusterConfig, EnvConfig, TrainingConfig, WorkloadConfig
from .errors import CheckpointError, ConfigError, TraceError

__all__ = ["main", "build_parser"]

#: Options that several commands take, each declared once.  A command
#: passes its own help text (keyed by dest) where an option means
#: something else there: a per-shard limit or another default.
_SHARED_OPTIONS: Dict[str, Dict[str, Any]] = {
    "--arrival": dict(
        default="poisson:rate=0.05,n=200",
        help="arrival spec: poisson:rate=R,n=N | uniform:interarrival=K,n=N "
        "| trace:path=t.json,mean=M (see repro.streaming.parse_arrival_spec)",
    ),
    "--seed": dict(type=int, default=0),
    "--ranker": dict(default="sjf", help="dispatch order: fifo|sjf|cp|tetris"),
    "--tasks": dict(type=int, default=8, help="tasks per generated job DAG"),
    "--max-concurrent": dict(type=int, default=None),
    "--max-queue": dict(type=int, default=None),
    "--horizon": dict(
        type=int,
        default=None,
        help="run length in slots from the first arrival; later arrivals "
        "are cut off (in-flight work drains)",
    ),
    "--faults": dict(
        default=None,
        help="fault spec, e.g. crashes=2,transient=0.05,straggler=0.1 "
        "(see repro.faults.parse_fault_spec)",
    ),
    "--fault-horizon": dict(
        type=int,
        default=None,
        help="crash-time horizon in slots (default: --horizon or 1000)",
    ),
    "--reschedule": dict(
        default=None,
        help="scheduler spec replanning each job's residual DAG on every "
        "fault event, e.g. heft or mcts:budget=50",
    ),
    "--fallback": dict(
        default=None,
        help="heuristic spec the rescheduler degrades to on errors or "
        "budget overruns (e.g. heft)",
    ),
    "--replan-budget": dict(
        type=float, default=None, help="per-replan wall-clock budget in seconds"
    ),
    "--metrics-out": dict(
        default=None,
        help="write the deterministic metrics JSON here "
        "(byte-identical across runs of the same spec+seed)",
    ),
    "--verify-executed": dict(
        action="store_true",
        help="verify every executed schedule against the realized DAGs "
        "(exit 1 on any violation)",
    ),
    "--gate-p99": dict(
        type=float,
        default=None,
        help="exit 1 if the p99 JCT exceeds this many slots (CI gate)",
    ),
    "--trace-out": dict(
        default=None,
        help="run with telemetry enabled; write the JSONL trace here",
    ),
}

#: The open-system options ``stream`` and ``federate`` share, in order.
_ARRIVAL_OPTIONS = (
    "--arrival",
    "--seed",
    "--ranker",
    "--tasks",
    "--max-concurrent",
    "--max-queue",
    "--horizon",
    "--faults",
    "--fault-horizon",
)
_REPLAN_OPTIONS = ("--reschedule", "--fallback", "--replan-budget")


def _add_shared(parser: argparse.ArgumentParser, *names: str, **helps: str) -> None:
    """Add the shared options ``names`` in order; ``helps`` overrides help text."""
    for name in names:
        spec = dict(_SHARED_OPTIONS[name])
        dest = name[2:].replace("-", "_")
        if dest in helps:
            spec["help"] = helps[dest]
        parser.add_argument(name, **spec)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spear (ICDCS 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="schedule one random DAG")
    simulate.add_argument(
        "--scheduler",
        default="tetris",
        help="registry spec, e.g. tetris, mcts:budget=200, "
        "spear:budget=100,verify=true (see: repro schedulers)",
    )
    simulate.add_argument("--tasks", type=int, default=50)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--budget", type=int, default=100)
    simulate.add_argument("--min-budget", type=int, default=20)

    schedulers = sub.add_parser(
        "schedulers", help="list registered schedulers and their spec options"
    )
    schedulers.add_argument("--json", action="store_true", help="JSON output")

    train = sub.add_parser("train", help="train a Spear policy network")
    train.add_argument("--epochs", type=int, default=50)
    train.add_argument("--examples", type=int, default=24)
    train.add_argument("--example-tasks", type=int, default=15)
    train.add_argument("--rollouts", type=int, default=8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="spear-network.npz")
    train.add_argument("--log-every", type=int, default=10)
    train.add_argument(
        "--algo",
        choices=("reinforce", "ppo"),
        default="reinforce",
        help="rollout trainer (default: the paper's REINFORCE)",
    )
    train.add_argument(
        "--policy",
        choices=("mlp", "gnn"),
        default="mlp",
        help="model family: windowed MLP or scale-invariant graph policy",
    )
    train.add_argument(
        "--grad-clip",
        type=float,
        default=0.0,
        help="global-norm gradient clipping threshold (0 = off)",
    )
    _add_shared(train, "--trace-out")

    trace = sub.add_parser(
        "trace",
        help="generate/characterize a workload trace, or inspect a "
        "telemetry trace (summary/export/top-spans)",
    )
    trace.add_argument("--out", default=None)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--jobs", type=int, default=99)
    trace.add_argument("--stats", action="store_true")
    trace_sub = trace.add_subparsers(dest="trace_command")
    trace_summary = trace_sub.add_parser(
        "summary", help="span/counter/series report of a telemetry JSONL trace"
    )
    trace_summary.add_argument("path", help="telemetry JSONL trace file")
    trace_export = trace_sub.add_parser(
        "export", help="re-export a telemetry trace (validating round-trip)"
    )
    trace_export.add_argument("path", help="telemetry JSONL trace file")
    trace_export.add_argument(
        "--out", required=True, dest="export_out", help="destination JSONL path"
    )
    trace_top = trace_sub.add_parser(
        "top-spans", help="span names ranked by total time spent"
    )
    trace_top.add_argument("path", help="telemetry JSONL trace file")
    trace_top.add_argument("--limit", type=int, default=10)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument(
        "name",
        choices=[
            "fig6a",
            "fig6b",
            "fig7",
            "fig8a",
            "fig8b",
            "fig9ab",
            "fig9c",
            "table1",
            "generalization",
        ],
    )
    experiment.add_argument("--paper-scale", action="store_true")
    experiment.add_argument("--seed", type=int, default=0)
    _add_shared(experiment, "--trace-out")

    ablation = sub.add_parser("ablation", help="run a design-choice ablation")
    ablation.add_argument("name")
    ablation.add_argument("--paper-scale", action="store_true")
    ablation.add_argument("--seed", type=int, default=0)

    sub.add_parser("motivating", help="run the Fig. 3 motivating example")

    compare = sub.add_parser(
        "compare", help="round-robin tournament over random DAGs"
    )
    compare.add_argument(
        "--schedulers",
        default="tetris,sjf,cp,graphene,heft",
        help="comma-separated registry names (plus 'mcts')",
    )
    compare.add_argument("--jobs", type=int, default=5)
    compare.add_argument("--tasks", type=int, default=30)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--budget", type=int, default=50)
    compare.add_argument("--min-budget", type=int, default=10)
    compare.add_argument("--reference", default=None)
    _add_shared(compare, "--trace-out")

    online = sub.add_parser(
        "online", help="multi-job arrival-stream simulation on a trace"
    )
    online.add_argument("--jobs", type=int, default=10)
    _add_shared(online, "--seed")
    online.add_argument("--mean-interarrival", type=float, default=25.0)
    online.add_argument("--runtime-scale", type=float, default=0.2)
    online.add_argument(
        "--rankers", default="fifo,sjf,cp,tetris", help="comma-separated"
    )
    _add_shared(
        online,
        "--faults",
        "--fault-horizon",
        *_REPLAN_OPTIONS,
        "--verify-executed",
        fault_horizon="crash-time horizon in slots "
        "(default: jobs x interarrival x 2)",
    )
    online.add_argument(
        "--check-recoveries",
        action="store_true",
        help="exit 1 unless the run recovered capacity at least once "
        "(CI fault-smoke gate)",
    )
    _add_shared(online, "--trace-out")

    stream = sub.add_parser(
        "stream",
        help="continuous-arrival steady-state simulation (open system)",
    )
    _add_shared(
        stream,
        *_ARRIVAL_OPTIONS,
        *_REPLAN_OPTIONS,
        "--metrics-out",
        "--verify-executed",
        "--gate-p99",
        "--trace-out",
        max_concurrent="admission limit on jobs in the cluster "
        "(default: unbounded)",
        max_queue="backlog capacity once --max-concurrent is hit; a full "
        "backlog sheds (rejects) new arrivals",
    )

    federate = sub.add_parser(
        "federate",
        help="sharded multi-scheduler federation with routing and stealing",
    )
    federate.add_argument(
        "--shards",
        type=int,
        default=2,
        help="number of shards the cluster capacity is split into",
    )
    federate.add_argument(
        "--router",
        default="least-load",
        help="placement policy spec: round-robin | least-load:metric=jobs|tasks"
        " | hash:salt=N | affinity:spill=N "
        "(see repro.federation.parse_router_spec)",
    )
    federate.add_argument(
        "--steal-threshold",
        type=int,
        default=None,
        help="migrate work when the jobs-in-system gap between the most- "
        "and least-loaded shard exceeds this (default: stealing off)",
    )
    federate.add_argument(
        "--scheduler",
        action="append",
        default=None,
        help="rescheduler spec replanning residual DAGs (e.g. heft). Give "
        "once for all shards, or once per shard for a heterogeneous "
        "federation; 'none' leaves a shard ranker-only",
    )
    _add_shared(
        federate,
        *_ARRIVAL_OPTIONS,
        "--metrics-out",
        "--gate-p99",
        max_concurrent="per-shard admission limit on jobs in the shard "
        "(default: unbounded)",
        max_queue="per-shard backlog capacity once --max-concurrent is hit",
        faults="per-shard fault spec, e.g. crashes=1,transient=0.05; each "
        "shard gets its own seeded plan validated against its slice "
        "(the shard is the fault domain)",
    )
    federate.add_argument(
        "--compare-global",
        action="store_true",
        help="also run an equal-total-capacity single-scheduler baseline "
        "on the same stream and report the deltas",
    )
    _add_shared(federate, "--trace-out")

    serve = sub.add_parser(
        "serve", help="scheduling daemon speaking newline-delimited JSON"
    )
    serve.add_argument(
        "--scheduler",
        default="tetris",
        help="registry spec served to clients (see: repro schedulers)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=16,
        help="most requests planned in one serving tick",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="in-process round trip: start the daemon, submit --requests "
        "concurrent requests, drain, and exit (CI gate)",
    )
    serve.add_argument(
        "--requests", type=int, default=3, help="--smoke request count"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--frames-out",
        default=None,
        help="--smoke: write every exchanged frame here as JSONL",
    )

    verify = sub.add_parser(
        "verify", help="check a schedule JSON against its DAG and capacities"
    )
    verify.add_argument("schedule", help="schedule JSON (repro.metrics.export)")
    verify.add_argument(
        "--graph", required=True, help="task-graph JSON (repro.dag.io)"
    )
    verify.add_argument(
        "--capacities",
        default=None,
        help="comma-separated per-resource capacities (default: cluster default)",
    )
    verify.add_argument("--json", action="store_true", help="JSON report")

    bench = sub.add_parser(
        "bench", help="time the microbenchmarks perfbench cannot see"
    )
    bench.add_argument(
        "--baseline",
        default=None,
        help="baselines JSON to gate against (exit 1 on regression, "
        "2 on a missing, stale or malformed row)",
    )
    bench.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the --baseline file from this run's means",
    )
    return parser


# ---------------------------------------------------------------------- #
# command implementations
# ---------------------------------------------------------------------- #


def _split_spec_list(raw: str) -> List[str]:
    """Split a comma-separated scheduler-spec list.

    Commas also separate options *inside* a spec, so a ``key=value`` part
    following a spec that already has a ``:`` belongs to that spec:
    ``"mcts:budget=50,seed=2,tetris"`` → ``["mcts:budget=50,seed=2",
    "tetris"]``.
    """
    specs: List[str] = []
    for part in [p.strip() for p in raw.split(",") if p.strip()]:
        if "=" in part and ":" not in part and specs and ":" in specs[-1]:
            specs[-1] += f",{part}"
        else:
            specs.append(part)
    return specs


def _default_mcts_spec(spec: str, args: argparse.Namespace) -> str:
    """Expand a bare ``mcts`` spec with the legacy budget flags."""
    if spec == "mcts":
        return (
            f"mcts:budget={args.budget},min_budget={args.min_budget},"
            f"seed={args.seed}"
        )
    return spec


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .dag.generators import random_layered_dag
    from .metrics.schedule import validate_schedule
    from .schedulers.base import ScheduleRequest
    from .schedulers.registry import make_scheduler

    graph = random_layered_dag(WorkloadConfig(num_tasks=args.tasks), seed=args.seed)
    env_config = _env_config()
    scheduler = make_scheduler(_default_mcts_spec(args.scheduler, args), env_config)
    schedule = scheduler.plan(ScheduleRequest(graph))
    validate_schedule(schedule, graph, env_config.cluster.capacities)
    print(
        f"{args.scheduler}: {graph.num_tasks} tasks, makespan "
        f"{schedule.makespan} slots, planned in {schedule.wall_time:.2f}s"
    )
    return 0


def _cmd_schedulers(args: argparse.Namespace) -> int:
    from .schedulers.registry import scheduler_options

    options = scheduler_options()
    wrapper_help = {
        "verify": "bool — machine-check every emitted schedule",
        "telemetry": "bool — wrap plans in scheduler.plan spans",
        "fallback": "spec — degrade to this scheduler on errors/overruns",
        "replan_budget": "float — per-replan wall-clock budget (seconds)",
    }
    if args.json:
        print(json.dumps({"schedulers": options, "wrapper_keys": wrapper_help},
                         indent=2))
        return 0
    print("registered schedulers (spec: name[:key=value,...]):")
    for name, schema in options.items():
        if schema:
            keys = ", ".join(f"{key}={typ}" for key, typ in schema.items())
            print(f"  {name:<10} {keys}")
        else:
            print(f"  {name}")
    print("wrapper keys (valid on every spec):")
    for key, text in wrapper_help.items():
        print(f"  {key:<14} {text}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .core.pipeline import train_spear_network
    from .rl.checkpoints import save_checkpoint

    training = TrainingConfig(
        num_examples=args.examples,
        example_num_tasks=args.example_tasks,
        rollouts_per_example=args.rollouts,
        epochs=args.epochs,
        max_grad_norm=args.grad_clip,
    )
    network, history = train_spear_network(
        env_config=_env_config(),
        training=training,
        seed=args.seed,
        log_every=args.log_every,
        algo=args.algo,
        policy=args.policy,
    )
    save_checkpoint(network, args.out)
    final = history[-1].mean_makespan if history else float("nan")
    print(
        f"trained {args.epochs} epochs ({args.algo}, {args.policy}); "
        f"final mean makespan {final:.1f}"
    )
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if getattr(args, "trace_command", None):
        return _cmd_trace_telemetry(args)
    from .experiments.reporting import format_cdf
    from .traces.stats import trace_statistics
    from .traces.synthetic import TraceConfig, generate_production_trace

    trace = generate_production_trace(
        TraceConfig(num_jobs=args.jobs), seed=args.seed
    )
    if args.out:
        trace.save(args.out)
        print(f"wrote {len(trace)} jobs to {args.out}")
    if args.stats or not args.out:
        stats = trace_statistics(trace)
        print(
            f"{stats.num_jobs} jobs | map tasks median "
            f"{stats.median_map_count:.0f} max {stats.max_map_count} | "
            f"reduce tasks median {stats.median_reduce_count:.0f} max "
            f"{stats.max_reduce_count}"
        )
        map_cdf, reduce_cdf = stats.runtime_cdfs()
        print(format_cdf(map_cdf, "map runtime", title="Fig 9(b) map stage"))
        print(format_cdf(reduce_cdf, "reduce runtime", title="Fig 9(b) reduce stage"))
    return 0


def _cmd_trace_telemetry(args: argparse.Namespace) -> int:
    """``repro trace summary|export|top-spans`` over a telemetry JSONL."""
    from .telemetry import load_trace, summarize, top_spans, write_trace

    loaded = load_trace(args.path)
    if args.trace_command == "summary":
        print(summarize(loaded.events).report())
    elif args.trace_command == "export":
        target = write_trace(args.export_out, loaded.events, meta=loaded.meta)
        print(f"wrote {len(loaded.events)} events to {target}")
    elif args.trace_command == "top-spans":
        ranked = top_spans(loaded.events, limit=args.limit)
        if not ranked:
            print("no spans in trace")
        for stats in ranked:
            print(
                f"{stats.name:<32} n={stats.count:<6} "
                f"total={stats.total_us / 1e6:>8.3f}s "
                f"mean={stats.mean_us:>10.1f}us p99={stats.p99_us:>10.1f}us"
            )
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import fig6, fig7, fig8, fig9, generalization, table1
    from .experiments.reporting import format_cdf
    from .experiments.scale import resolve_scale

    scale = args.paper_scale or None
    name = args.name
    if name == "fig6a":
        print(fig6.report(fig6.makespan_comparison(scale, seed=args.seed)))
    elif name == "fig6b":
        result = fig6.makespan_comparison(scale, seed=args.seed)
        for scheduler in ("spear", "graphene"):
            series = result.wall_times[scheduler]
            mean = sum(series) / len(series)
            print(f"{scheduler}: mean {mean:.2f}s, max {max(series):.2f}s")
    elif name == "fig7":
        print(fig7.report(fig7.budget_sweep(scale, seed=args.seed)))
    elif name == "fig8a":
        result = fig8.budget_reduction(scale, seed=args.seed)
        print(fig8.report(result, resolve_scale(scale)))
    elif name == "fig8b":
        print(fig8.learning_curve(scale, seed=args.seed).report())
    elif name == "fig9ab":
        stats = fig9.trace_characteristics(scale, seed=args.seed)
        map_cdf, reduce_cdf = stats.count_cdfs()
        print(format_cdf(map_cdf, "#map", title="Fig 9(a) map tasks"))
        print(format_cdf(reduce_cdf, "#reduce", title="Fig 9(a) reduce tasks"))
    elif name == "fig9c":
        print(fig9.report(fig9.reduction_cdf(scale, seed=args.seed)))
    elif name == "table1":
        print(table1.report(table1.runtime_grid(scale, seed=args.seed)))
    elif name == "generalization":
        study = generalization.generalization_study(scale, seed=args.seed)
        print(generalization.report(study))
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments.ablations import ABLATIONS, feature_ablation, report, run_ablation

    scale = args.paper_scale or None
    if args.name == "graph-features":
        print(report(args.name, feature_ablation(scale, seed=args.seed)))
        return 0
    if args.name not in ABLATIONS:
        print(
            f"unknown ablation {args.name!r}; choose from "
            f"{sorted(ABLATIONS) + ['graph-features']}",
            file=sys.stderr,
        )
        return 2
    print(report(args.name, run_ablation(args.name, scale, seed=args.seed)))
    return 0


def _cmd_motivating(_: argparse.Namespace) -> int:
    from .dag.examples import MOTIVATING_CAPACITY, MOTIVATING_T, motivating_example
    from .metrics.schedule import validate_schedule
    from .schedulers.base import ScheduleRequest
    from .schedulers.registry import make_scheduler

    graph = motivating_example()
    env_config = EnvConfig(
        cluster=ClusterConfig(capacities=MOTIVATING_CAPACITY, horizon=20)
    )
    print("Fig. 3 motivating example (T =", MOTIVATING_T, "slots):")
    for name in ("optimal", "tetris", "sjf", "cp", "graphene"):
        schedule = make_scheduler(name, env_config).plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, MOTIVATING_CAPACITY)
        print(f"  {name:<9} makespan {schedule.makespan} "
              f"({schedule.makespan / MOTIVATING_T:.0f}T)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .dag.generators import random_layered_dags
    from .experiments.tournament import run_tournament
    from .schedulers.registry import make_scheduler, parse_scheduler_spec

    env_config = _env_config()
    schedulers = {}
    for spec in _split_spec_list(args.schedulers):
        label = parse_scheduler_spec(spec)[0]
        schedulers[label] = make_scheduler(_default_mcts_spec(spec, args), env_config)
    graphs = random_layered_dags(
        WorkloadConfig(num_tasks=args.tasks), args.jobs, args.seed
    )
    result = run_tournament(
        schedulers, graphs, env_config, reference=args.reference
    )
    print(result.report())
    return 0


def _env_config(capacities: Optional[Tuple[int, ...]] = None) -> EnvConfig:
    """The environment commands plan in: every task runs to completion,
    on the default cluster or on ``capacities`` (a federation shard)."""
    cluster = ClusterConfig() if capacities is None else ClusterConfig(capacities)
    return EnvConfig(cluster=cluster, process_until_completion=True)


def _fault_plan(args: argparse.Namespace, capacities, default_horizon: int, seed: int):
    """The ``--faults`` plan on ``capacities``, or ``None`` without one.

    Crash times fall before ``--fault-horizon``, else ``default_horizon``.
    """
    if not args.faults:
        return None
    from .faults import parse_fault_spec

    horizon = default_horizon if args.fault_horizon is None else args.fault_horizon
    return parse_fault_spec(args.faults, capacities, horizon, seed=seed)


def _rescheduler(spec, capacities=None, fallback=None, replan_budget=None):
    """A fresh scheduler replanning residual DAGs, or ``None`` without a spec.

    Each call builds its own wrapper, so degradation state never leaks
    between runs.
    """
    if not spec:
        if fallback or replan_budget is not None:
            raise ConfigError("--fallback/--replan-budget require --reschedule")
        return None
    from .schedulers.registry import compose_scheduler

    return compose_scheduler(
        spec,
        _env_config(capacities),
        reschedule=True,
        fallback=fallback,
        replan_budget=replan_budget,
    )


def _admission(args: argparse.Namespace, scale: int = 1):
    """``--max-concurrent``/``--max-queue``, each times ``scale``, as an
    admission policy; ``None`` when neither is set."""
    if args.max_concurrent is None and args.max_queue is None:
        return None
    from .streaming import AdmissionConfig

    return AdmissionConfig(
        max_concurrent=(
            None if args.max_concurrent is None else args.max_concurrent * scale
        ),
        max_queue=None if args.max_queue is None else args.max_queue * scale,
    )


def _arrivals(args: argparse.Namespace):
    """A fresh ``--arrival`` process of ``--tasks``-task layered DAGs."""
    from .streaming import layered_job_factory, parse_arrival_spec, streaming_workload

    factory = layered_job_factory(streaming_workload(num_tasks=args.tasks))
    return parse_arrival_spec(args.arrival, factory, seed=args.seed)


def _verify_executed(runs, capacities) -> int:
    """Check every executed schedule of ``runs`` (``(label, online result,
    jobs)`` triples); print each violation and the verdict; return the
    exit code."""
    from .online import verify_execution

    violations = 0
    for label, result, jobs in runs:
        reports = verify_execution(result, jobs, capacities)
        bad = [r for r in reports if r is not None and not r.ok]
        for report in bad:
            print(f"{label}: {report.summary()}", file=sys.stderr)
        violations += len(bad)
    print(
        "executed-schedule verification: "
        + ("clean" if not violations else f"{violations} job(s) violated")
    )
    return 1 if violations else 0


def _gate_p99(args: argparse.Namespace, p99: float) -> int:
    """Exit code of the ``--gate-p99`` bound on the run's p99 JCT."""
    if args.gate_p99 is not None and p99 > args.gate_p99:
        print(
            f"{args.command}: p99 JCT {p99:.0f} exceeds the "
            f"--gate-p99 bound {args.gate_p99:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating its parent directory."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _write_metrics(path: str, payload: dict) -> None:
    """Write a run's deterministic metrics JSON (``--metrics-out``)."""
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote metrics to {path}")


def _cmd_online(args: argparse.Namespace) -> int:
    from .experiments.reporting import format_table
    from .online import OnlineSimulator, resolve_ranker
    from .traces.arrivals import poisson_arrivals
    from .traces.synthetic import TraceConfig, generate_production_trace

    names = [n.strip() for n in args.rankers.split(",") if n.strip()]
    known = {name: resolve_ranker(name) for name in names}
    if not names:
        raise ConfigError("--rankers names no ranker")

    trace = generate_production_trace(
        TraceConfig(num_jobs=args.jobs, runtime_scale=args.runtime_scale),
        seed=args.seed,
    )
    stream = poisson_arrivals(trace, args.mean_interarrival, seed=args.seed)
    capacities = ClusterConfig().capacities
    faults = _fault_plan(
        args,
        capacities,
        max(2, int(args.jobs * args.mean_interarrival * 2)),
        args.seed,
    )

    simulator = OnlineSimulator()
    rows = []
    runs = []
    recovered = 0
    for name in names:
        rescheduler = _rescheduler(
            args.reschedule, fallback=args.fallback, replan_budget=args.replan_budget
        )
        result = simulator.run(
            stream, known[name], faults=faults, rescheduler=rescheduler
        )
        cpu, mem = result.mean_utilization
        row = [name, result.mean_jct, result.max_jct, result.makespan,
               f"{cpu:.0%}/{mem:.0%}"]
        if faults is not None:
            # Effective (realized-capacity) vs nominal utilization: the
            # gap is the share of nominal capacity lost to crashes.
            nom_cpu, nom_mem = result.nominal_utilization
            row += [
                f"{nom_cpu:.0%}/{nom_mem:.0%}",
                f"{result.crashes}/{result.recoveries}",
                result.total_retries,
                result.failed_jobs,
            ]
            recovered += result.recoveries
        rows.append(tuple(row))
        runs.append((f"online[{name}]", result, stream))
    headers = ["ranker", "mean JCT", "max JCT", "makespan", "util cpu/mem"]
    if faults is not None:
        headers += ["nom util", "crash/recov", "retries", "failed"]
    title = (
        f"Online: {len(stream)} jobs, Poisson mean interarrival "
        f"{args.mean_interarrival:g} slots"
    )
    if faults is not None:
        title += f" | faults: {args.faults}"
    if args.reschedule:
        title += f" | reschedule: {args.reschedule}"
    print(format_table(headers, rows, title=title))
    if args.verify_executed and _verify_executed(runs, capacities):
        return 1
    if args.check_recoveries and faults is not None and recovered == 0:
        print("online: no capacity recovery occurred", file=sys.stderr)
        return 1
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .online import resolve_ranker
    from .streaming import StreamingSimulator

    ranker = resolve_ranker(args.ranker)
    arrivals = _arrivals(args)
    admission = _admission(args)
    cluster = ClusterConfig()
    faults = _fault_plan(
        args,
        cluster.capacities,
        1000 if args.horizon is None else args.horizon,
        args.seed,
    )
    rescheduler = _rescheduler(
        args.reschedule, fallback=args.fallback, replan_budget=args.replan_budget
    )
    result = StreamingSimulator(cluster=cluster).run(
        arrivals,
        ranker,
        admission=admission,
        horizon=args.horizon,
        faults=faults,
        rescheduler=rescheduler,
    )
    print(f"Streaming: {args.arrival} | ranker {args.ranker} | seed {args.seed}")
    print(result.report())
    if args.metrics_out:
        _write_metrics(args.metrics_out, result.metrics_dict())
    # The process is restartable, so re-materializing it recovers each
    # outcome's original graph by stream index.
    if args.verify_executed and _verify_executed(
        [("stream", result.online, list(arrivals.jobs()))], cluster.capacities
    ):
        return 1
    return _gate_p99(args, result.p99_jct)


def _cmd_federate(args: argparse.Namespace) -> int:
    from .federation import (
        FederatedStreamingSimulator,
        FederationComparison,
        ShardSpec,
        parse_router_spec,
        split_capacities,
    )
    from .online import resolve_ranker
    from .streaming import StreamingSimulator

    ranker = resolve_ranker(args.ranker)
    cluster = ClusterConfig()
    router = parse_router_spec(args.router)
    slices = split_capacities(cluster.capacities, args.shards)
    # 'none' leaves a shard ranker-only.
    scheduler_specs = [None if s == "none" else s for s in args.scheduler or [None]]
    if len(scheduler_specs) not in (1, args.shards):
        raise ConfigError(
            f"--scheduler given {len(scheduler_specs)} times; give it "
            f"once for all shards or once per shard ({args.shards})"
        )
    if len(scheduler_specs) == 1:
        scheduler_specs *= args.shards
    admission = _admission(args)
    fault_horizon = 1000 if args.horizon is None else args.horizon
    specs = [
        ShardSpec(
            capacities=capacities,
            ranker=ranker,
            rescheduler=_rescheduler(scheduler_specs[k], capacities),
            admission=admission,
            # seed + k: each shard is its own seeded fault domain.
            faults=_fault_plan(args, capacities, fault_horizon, args.seed + k),
        )
        for k, capacities in enumerate(slices)
    ]
    arrivals = _arrivals(args)
    simulator = FederatedStreamingSimulator(
        specs, router=router, steal_threshold=args.steal_threshold
    )
    result = simulator.run(arrivals, horizon=args.horizon)

    comparison = None
    if args.compare_global:
        # Equal-total-capacity single scheduler on the *same* stream:
        # per-shard admission limits scale by the shard count so the
        # two systems admit the same aggregate load.
        global_run = StreamingSimulator(cluster=cluster).run(
            _arrivals(args),
            ranker,
            admission=_admission(args, args.shards),
            horizon=args.horizon,
            faults=_fault_plan(args, cluster.capacities, fault_horizon, args.seed),
            rescheduler=_rescheduler(scheduler_specs[0]),
        )
        comparison = FederationComparison(result, global_run)
    print(
        f"Federation: {args.shards} shards of {cluster.capacities} "
        f"| router {args.router} | ranker {args.ranker} | seed {args.seed}"
    )
    print(result.report() if comparison is None else comparison.report())
    if args.metrics_out:
        _write_metrics(
            args.metrics_out,
            result.metrics_dict() if comparison is None else comparison.metrics_dict(),
        )
    return _gate_p99(args, result.aggregate.p99_jct)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .errors import ProtocolError
    from .schedulers.registry import make_scheduler
    from .streaming.service import run_serve, run_smoke

    env_config = _env_config()
    scheduler = make_scheduler(args.scheduler, env_config)
    if args.smoke:
        try:
            summary = run_smoke(
                scheduler,
                requests=args.requests,
                batch_max=args.batch_max,
                seed=args.seed,
                capacities=env_config.cluster.capacities,
            )
        except ProtocolError as exc:
            print(f"serve: smoke failed: {exc}", file=sys.stderr)
            return 1
        if args.frames_out:
            lines = [json.dumps(r, sort_keys=True) for r in summary["replies"]]
            lines.append(json.dumps(summary["drain"], sort_keys=True))
            _write_text(args.frames_out, "\n".join(lines) + "\n")
            print(f"wrote {len(lines)} frames to {args.frames_out}")
        stats = summary["stats"]
        print(
            f"serve smoke: {len(summary['replies'])} replies over "
            f"{stats['batches']} batch(es) (max batch {stats['max_batch']}), "
            f"drained clean ({stats['served']} served, {stats['errors']} errors)"
        )
        return 0
    stats = run_serve(
        scheduler,
        host=args.host,
        port=args.port,
        batch_max=args.batch_max,
        on_ready=lambda addr: print(
            f"serving {args.scheduler} on {addr[0]}:{addr[1]} "
            "(send a drain frame to stop)",
            flush=True,
        ),
    )
    print(
        f"drained: served {stats.served}, errors {stats.errors}, "
        f"batches {stats.batches}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .analysis.verifier import verify_payload
    from .dag.io import load_graph
    from .errors import ReproError

    try:
        graph = load_graph(args.graph)
        payload = json.loads(Path(args.schedule).read_text(encoding="utf-8"))
    except (OSError, ValueError, ReproError) as exc:
        print(f"verify: cannot load inputs: {exc}", file=sys.stderr)
        return 2
    if args.capacities:
        try:
            capacities = tuple(
                int(c) for c in args.capacities.split(",") if c.strip()
            )
        except ValueError:
            print(
                f"verify: bad --capacities {args.capacities!r}", file=sys.stderr
            )
            return 2
    else:
        capacities = ClusterConfig().capacities
    try:
        report = verify_payload(payload, graph, capacities)
    except ReproError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        compare_to_baselines,
        default_suite,
        load_baselines,
        run_benchmarks,
        write_baselines,
    )

    if args.update_baselines and not args.baseline:
        print("bench: --update-baselines requires --baseline", file=sys.stderr)
        return 2
    gate = args.baseline and not args.update_baselines
    # A malformed file fails before the suite spends its seconds.
    baselines = load_baselines(args.baseline) if gate else {}
    run = run_benchmarks(default_suite(), progress=print)
    comparisons = compare_to_baselines(run, baselines) if gate else []
    if args.update_baselines:
        target = write_baselines(run, args.baseline)
        print(f"updated baselines in {target}")
        return 0
    for comparison in comparisons:
        print(comparison.line())
    if any(not comparison.ok for comparison in comparisons):
        print("bench: performance regression detected", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "schedulers": _cmd_schedulers,
    "train": _cmd_train,
    "trace": _cmd_trace,
    "experiment": _cmd_experiment,
    "ablation": _cmd_ablation,
    "motivating": _cmd_motivating,
    "compare": _cmd_compare,
    "online": _cmd_online,
    "stream": _cmd_stream,
    "federate": _cmd_federate,
    "serve": _cmd_serve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Commands exposing ``--trace-out`` run inside a telemetry session
    (:func:`repro.telemetry.session`) and leave a JSONL span/metric
    trace at the given path; everything else runs with telemetry off.
    The trace is written beside the path and moved there when the
    command ends, so an invalid argument or an input that cannot be
    loaded (exit 2) leaves the path as it was.
    """
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return _run(args)
    from .telemetry import TelemetryConfig, session

    partial = Path(f"{trace_out}.partial")
    try:
        with session(TelemetryConfig(enabled=True, jsonl_path=str(partial))):
            code = _COMMANDS[args.command](args)
    except _INVALID_INPUT as exc:
        partial.unlink(missing_ok=True)
        return _invalid(args, exc)
    finally:
        if partial.exists():
            partial.replace(trace_out)
    print(f"wrote telemetry trace to {trace_out}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace) -> int:
    try:
        return _COMMANDS[args.command](args)
    except _INVALID_INPUT as exc:
        return _invalid(args, exc)


#: A bad argument, or a named trace or checkpoint that cannot be loaded.
_INVALID_INPUT = (CheckpointError, ConfigError, TraceError)


def _invalid(args: argparse.Namespace, exc: Exception) -> int:
    """An invalid input is a one-line error, exit 2."""
    print(f"{args.command}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
