"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` is written from this module (a self-test compares the
two), so the runner, the table printer and the contract file cannot
drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .trace import TARGETS

__all__ = [
    "END_TO_END", "PER_LAYER", "RESIDUAL_ROWS", "RUN_SECONDS", "WORKLOAD_WHY",
    "benchmark_json",
]

#: How long one ``--trace 0`` run measures.  One cycle over a workload's
#: distinct inputs was sized to fit in it (workloads.SIZES).
RUN_SECONDS = 15

#: (name, unit, better, bound).  Every workload reports every one of them;
#: what ``work_per_s`` counts and what one ``op_ms_p50`` sample is depends
#: on the workload (``Workload.unit`` / ``Workload.op``, README.md).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.15),
    ("op_ms_p50", "ms", "lower", 0.15),
    ("gap_to_bound", "ratio", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: Rows that are defined as wall minus the other rows: no call count.
RESIDUAL_ROWS = ("streaming.service", "bench.other")


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    for boundary in TARGETS:
        rows.append((f"{boundary}.self_s", "s", "lower"))
        if boundary not in RESIDUAL_ROWS:
            rows.append((f"{boundary}.calls", "count", "lower"))
    rows += [
        # rows per forward call is the batching factor
        ("rl.forward.rows", "count", "lower"),
        # counts from public statistics; they repeat exactly for a seed
        ("mcts.iterations", "count", "lower"),
        ("mcts.rollouts", "count", "lower"),
        ("mcts.decisions", "count", "lower"),
        ("sim.jobs", "count", "higher"),
        ("sim.tasks", "count", "higher"),
        ("federation.steals", "count", "lower"),
        ("faults.retries", "count", "lower"),
        ("serve.batches", "count", "lower"),
        ("serve.max_batch", "count", "higher"),
        ("serve.bytes_in", "count", "lower"),
        ("serve.bytes_out", "count", "lower"),
        # plan time against DAG size on the mcts_plan configuration
        ("mcts.plan_s_n50", "s", "lower"),
        ("mcts.plan_s_n100", "s", "lower"),
        ("mcts.plan_s_n200", "s", "lower"),
        ("mcts.scale_exponent", "ratio", "lower"),
        # per-phase rates of the two-phase workloads, untraced
        ("train.reinforce_traj_per_s", "1/s", "higher"),
        ("train.ppo_traj_per_s", "1/s", "higher"),
        ("streaming.jobs_per_s", "1/s", "higher"),
        ("federation.jobs_per_s", "1/s", "higher"),
        ("online.jobs_per_s", "1/s", "higher"),
        # demoted from end-to-end: only serve has the samples for a p95
        ("serve.req_ms_p95", "ms", "lower"),
        ("makespan_mean", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
        ("trace.missing_targets", "count", "lower"),
    ]
    return rows


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

WORKLOAD_WHY: Dict[str, str] = {
    "spear_plan": (
        "Spear plan(), budget 50/10, trained MLP, 10 DAGs x 30 tasks: network-guided "
        "rollouts dominate (rl.select, rl.forward, obs.build); env and tree ops are minor"
    ),
    "mcts_plan": (
        "pure-MCTS plan(), budget 100/20, 6 DAGs x 100 tasks, scalar env: no network, "
        "env.playout/apply/undo and tree ops dominate; must not move with rl.* changes"
    ),
    "mcts_wave": (
        "same DAGs, budgets and seeds as mcts_plan but rollout_batch=32 on the array "
        "backend: the same layer used as batched lanes, so wave and scalar search can diverge"
    ),
    "train_epoch": (
        "one REINFORCE epoch on the MLP (16x25 tasks x10 rollouts) + one PPO epoch on the "
        "GNN (6x25x2): rollout collection, backward, optimizer, critic; no planner touches these"
    ),
    "stream_sim": (
        "Poisson(0.15) x 1500 jobs through streaming + 4-shard federation, and 150 jobs "
        "under crash+transient faults: sim kernel, dispatch, rankers, routing; no search, no network"
    ),
    "serve_roundtrip": (
        "closed loop, 2 persistent connections, bursts of 150 schedule frames (100-task "
        "DAGs) to SchedulerService(tetris): codec, validation, queue, executor hop dominate"
    ),
}


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``; regenerate the file with
    ``python3 -m perfbench.spec > BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_json(), indent=1))
