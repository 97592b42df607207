"""Root-parallel MCTS.

Sec. V-B1 notes that scheduling time "can also use multiprocessing
techniques ... as MCTS can easily be parallelized [16]".  This module
implements the standard *root parallelization*: ``workers`` independent
searches run over the same instance with derived seeds (in separate
processes when ``use_processes`` is set, else sequentially — useful for
deterministic tests), and the best schedule found is returned.

Root parallelization is embarrassingly parallel and, unlike tree
parallelization, requires no locking; with k workers it explores k times
the budget in roughly constant wall-clock, trading diversity for depth
exactly as Chaslot et al. [16] describe.
"""

from __future__ import annotations

from typing import Tuple

from ..config import EnvConfig, MctsConfig
from ..dag.io import graph_from_dict, graph_to_dict
from ..errors import ConfigError
from ..metrics.schedule import Schedule
from ..schedulers.base import Scheduler, ScheduleRequest, _planning_config
from ..telemetry import runtime as _telemetry
from ..utils.rng import SeedLike, as_generator, derive_seed
from ..utils.timing import Stopwatch
from .search import MctsScheduler

__all__ = ["RootParallelMcts"]


def _worker(
    payload: Tuple[dict, MctsConfig, EnvConfig, int]
) -> Tuple[int, dict]:
    """Process-pool entry point: run one search, return (makespan, starts).

    The graph travels as its JSON dict (cheap, and avoids pickling custom
    classes across fork/spawn differences).
    """
    graph_dict, config, env_config, seed = payload
    graph = graph_from_dict(graph_dict)
    scheduler = MctsScheduler(config, env_config, seed=seed)
    schedule = scheduler.plan(ScheduleRequest(graph))
    return schedule.makespan, {
        p.task_id: p.start for p in schedule.placements
    }


class RootParallelMcts(Scheduler):
    """Best-of-k independent MCTS searches.

    Args:
        config: per-worker search parameters (each worker gets the full
            budget; total work is ``workers x budget``).
        env_config: cluster shape.
        workers: number of independent searches (>= 1).
        seed: master seed; workers get derived independent seeds.
        use_processes: run workers in a multiprocessing pool. Defaults to
            ``False`` (sequential), which is deterministic and dependable
            in test environments; set ``True`` for wall-clock speedup.
    """

    name = "mcts-parallel"

    def __init__(
        self,
        config: MctsConfig | None = None,
        env_config: EnvConfig | None = None,
        workers: int = 4,
        seed: SeedLike = None,
        use_processes: bool = False,
    ) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.config = config if config is not None else MctsConfig()
        self.env_config = (
            env_config
            if env_config is not None
            else EnvConfig(process_until_completion=True)
        )
        self.workers = workers
        self.use_processes = use_processes
        self._rng = as_generator(seed)

    def plan(self, request: ScheduleRequest) -> Schedule:
        """Run all workers and return the best schedule found.

        Replan context is honoured the same way :class:`MctsScheduler`
        honours it: the request's cluster snapshot resolves the planning
        capacities, and every worker searches against them.  Workers inherit the full search/env configuration —
        including ``MctsConfig.rollout_batch``, so each worker runs the
        batched-leaf search under virtual loss when that is set.

        With telemetry active, wraps the fan-out in one
        ``mcts.parallel_schedule`` span and emits an ``mcts.worker``
        point event per worker outcome (makespan + derived seed) from
        the parent — workers in separate processes have their own
        (default-disabled) pipelines, so all reporting is parent-side.
        """
        graph = request.graph
        env_config = _planning_config(self.env_config, request)
        tm = _telemetry.active()
        watch = Stopwatch()
        with watch, tm.span(
            "mcts.parallel_schedule",
            workers=self.workers,
            tasks=graph.num_tasks,
            processes=self.use_processes,
        ) as span:
            seeds = [derive_seed(self._rng) for _ in range(self.workers)]
            payloads = [
                (graph_to_dict(graph), self.config, env_config, seed)
                for seed in seeds
            ]
            if self.use_processes and self.workers > 1:
                import multiprocessing

                with multiprocessing.Pool(self.workers) as pool:
                    outcomes = pool.map(_worker, payloads)
            else:
                outcomes = [_worker(p) for p in payloads]
            best_makespan, best_starts = min(outcomes, key=lambda o: o[0])
            if tm.enabled:
                for seed, (makespan, _) in zip(seeds, outcomes):
                    tm.event(
                        "mcts.worker",
                        seed=seed,
                        makespan=makespan,
                        best=makespan == best_makespan,
                    )
                span.set(best_makespan=best_makespan)
        return Schedule.from_starts(
            best_starts, graph, scheduler=self.name, wall_time=watch.elapsed
        )
