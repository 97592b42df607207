"""Scheduler and policy abstractions.

Two complementary interfaces coexist:

* :class:`Policy` — a *dynamic* decision rule: given the live environment,
  pick one action (:meth:`Policy.select`), or play a whole episode
  (:meth:`Policy.playout`, the entry point every episode runner calls).
  All greedy baselines (Tetris, SJF, CP, ...) are one :class:`GreedyPolicy`
  over their :mod:`~repro.schedulers.rules` key and the DRL agent is a
  policy; both override ``playout`` with
  :meth:`SchedulingEnv.policy_playout`, which calls them only where they
  have a choice to make (DESIGN.md Sec. 16.7).
* :class:`Scheduler` — anything that turns a scheduling *request* into a
  :class:`Schedule`.  :class:`PolicyScheduler` adapts a policy factory into
  a scheduler by rolling an episode; planners like Graphene and search
  methods like MCTS implement :class:`Scheduler` directly.

The scheduler entry point is :class:`ScheduleRequest`: a DAG and,
optionally, the capacities to plan it on (a replan's live cluster, crashed
slots subtracted).  That is all a planner reads.  Every scheduler
implements :meth:`Scheduler.plan`, and every caller — CLI, experiments,
benches, examples, tests — calls ``plan(ScheduleRequest(graph))``
(DESIGN.md Sec. 10.4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

from ..cluster.resources import fits
from ..config import EnvConfig
from ..dag.graph import TaskGraph
from ..env.actions import PROCESS, Action
from ..env.scheduling_env import SchedulingEnv, step_limit_exceeded
from ..errors import ConfigError
from ..metrics.schedule import Schedule
from ..utils.timing import Stopwatch
from .rules import Ranker, TaskContext

__all__ = [
    "Policy",
    "GreedyPolicy",
    "Scheduler",
    "SchedulerWrapper",
    "PolicyScheduler",
    "ClusterSnapshot",
    "ScheduleRequest",
    "episode_step_limit",
    "run_policy",
]

#: Hard cap on episode length as a multiple of the episode's work volume;
#: tripping it indicates a livelocked policy, which is a bug worth raising.
_STEP_LIMIT_FACTOR = 20


def episode_step_limit(graph: TaskGraph) -> int:
    """The step cap :func:`run_policy` gives an episode on ``graph``."""
    total_runtime = sum(graph.runtime_table().values())
    return _STEP_LIMIT_FACTOR * (total_runtime + graph.num_tasks)


class Policy(abc.ABC):
    """A dynamic scheduling decision rule."""

    #: Human-readable identifier used in reports.
    name: str = "policy"

    def begin_episode(self, env: SchedulingEnv) -> None:
        """Hook called once at episode start (override to cache features)."""

    @abc.abstractmethod
    def select(self, env: SchedulingEnv) -> Action:
        """Choose one action from ``env.legal_actions()``."""

    def playout(self, env: SchedulingEnv, limit: int) -> int:
        """Play ``env`` (mutating it) to termination; return the makespan.

        The episode-level entry point: :func:`run_policy`, the MCTS
        rollouts and the experiments call this, never ``select`` in a loop
        of their own.  This default *is* that loop — one ``select`` and
        one ``step`` per move, forced or not — and so the reference
        semantics: a custom or non-work-conserving policy keeps it, and an
        override (:class:`GreedyPolicy`, the network policies) must end in
        the same state, step count and makespan.  The trainers record
        through the network policies' override (a recorder sees forced
        moves and decisions apart).  Imitation (``rl/imitation.py``)
        records every state of an arbitrary teacher, has no episode to
        hand over and keeps calling ``select``.

        Args:
            env: a fresh or mid-episode environment.
            limit: step cap, counted over forced and decided moves alike.

        Raises:
            EnvironmentStateError: when ``limit`` is exceeded (a livelocked
                policy is a bug, not a result) or on an illegal action.
        """
        steps = 0
        while not env.done:
            if steps >= limit:
                raise step_limit_exceeded(limit)
            env.step(self.select(env))
            steps += 1
        return env.makespan


class GreedyPolicy(Policy):
    """A work-conserving list heuristic: one ranking rule, run offline.

    Whenever a visible ready task fits in free capacity one is started;
    only when nothing fits is the cluster processed.  List heuristics
    differ purely in *which* fitting task goes first: the one with the
    smallest :mod:`~repro.schedulers.rules` key, the rule the online
    dispatch reads too.  A state with a single candidate — two thirds of
    an episode — never reaches :meth:`choose`.

    Args:
        ranker: the ranking rule (e.g. ``RANKERS["cp"]``).
        name: report label.
    """

    def __init__(self, ranker: Ranker, name: str) -> None:
        self.ranker = ranker
        self.name = name

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        """Pick one of ``fitting``: the visible-window indices, ascending,
        of two or more ready tasks that fit now (never ``PROCESS``).
        ``env`` is in the state being decided and must only be read."""
        graph = env.graph
        visible = env.visible_ready()
        free = env.cluster.available
        now = env.now
        ranker = self.ranker
        return min(
            fitting,
            key=lambda a: ranker(
                TaskContext(graph.task(visible[a]), 0, 0, a, graph, None, free, now)
            ),
        )

    def select(self, env: SchedulingEnv) -> Action:
        candidates = env.expansion_actions()
        if len(candidates) > 1:
            return self.choose(env, candidates)
        return candidates[0] if candidates else PROCESS

    def playout(self, env: SchedulingEnv, limit: int) -> int:
        return env.policy_playout(partial(self.choose, env), None, limit)


@dataclass(frozen=True)
class ClusterSnapshot:
    """The cluster a planner plans on.

    Attributes:
        capacities: total slots per resource *right now* (crashed machines
            already subtracted).
    """

    capacities: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.capacities):
            raise ConfigError("snapshot capacities must be >= 0")


@dataclass(frozen=True)
class ScheduleRequest:
    """One plan's input: a DAG and the cluster to plan it on.

    Attributes:
        graph: the DAG to plan; for a replan, the job's residual DAG (its
            tasks neither finished nor running).
        cluster: the live cluster, or ``None`` for the scheduler's
            configured default cluster (the offline planning case).
    """

    graph: TaskGraph
    cluster: Optional[ClusterSnapshot] = None


class Scheduler(abc.ABC):
    """Anything that produces a complete schedule for a job DAG."""

    name: str = "scheduler"

    @abc.abstractmethod
    def plan(self, request: ScheduleRequest) -> Schedule:
        """Plan and return a feasible schedule for ``request``."""


class SchedulerWrapper(Scheduler):
    """Base class for transparent scheduler decorators.

    A wrapper keeps the inner scheduler's ``name`` (so reports and
    registries see the original label) and forwards unknown attribute
    access to it.  Forwarding is deliberately conservative:

    * dunder lookups raise :class:`AttributeError` immediately — Python's
      copy/pickle protocols probe ``__reduce_ex__``, ``__getstate__`` and
      friends *before* ``__init__`` has run, and forwarding those through
      a not-yet-assigned ``_inner`` used to recurse infinitely;
    * ``_inner`` itself is fetched with ``object.__getattribute__`` so a
      half-constructed (e.g. mid-unpickling) wrapper degrades to a clean
      :class:`AttributeError` instead of a ``RecursionError``.
    """

    def __init__(self, inner: Scheduler) -> None:
        self._inner = inner
        self.name = inner.name

    @property
    def inner(self) -> Scheduler:
        """The wrapped scheduler (unwrap repeatedly to reach the base)."""
        return self._inner

    def plan(self, request: ScheduleRequest) -> Schedule:
        return self._inner.plan(request)

    def __getattr__(self, attr: str):
        if attr.startswith("__") and attr.endswith("__"):
            raise AttributeError(attr)
        try:
            inner = object.__getattribute__(self, "_inner")
        except AttributeError:
            raise AttributeError(attr) from None
        return getattr(inner, attr)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._inner!r})"


def run_policy(
    env: SchedulingEnv,
    policy: Policy,
    max_steps: Optional[int] = None,
) -> Schedule:
    """Roll one episode of ``policy`` on ``env`` and export the schedule.

    Args:
        env: a freshly reset (or mid-episode) environment; it is mutated.
        policy: the decision rule.
        max_steps: optional explicit step cap; defaults to a generous
            multiple of the job's total runtime plus task count.

    Raises:
        EnvironmentStateError: if the step cap is hit (livelocked policy)
            or the policy returns an illegal action.
    """

    if max_steps is None:
        max_steps = episode_step_limit(env.graph)
    policy.begin_episode(env)
    watch = Stopwatch()
    with watch:
        policy.playout(env, max_steps)
    return env.to_schedule(scheduler=policy.name, wall_time=watch.elapsed)


def _planning_config(config: EnvConfig, request: ScheduleRequest) -> EnvConfig:
    """Resolve the environment config a planner should use for ``request``.

    A replan request carries the *current* capacities (crashed machines
    subtracted); planning against them keeps the plan executable on the
    degraded cluster.  When some residual task cannot fit the degraded
    capacities at all (it must wait for a recovery), fall back to the
    configured capacities — the plan is then a priority order rather than
    a packing, which is how the online executor consumes it anyway.
    """

    snapshot = request.cluster
    if snapshot is None:
        return config
    capacities = tuple(snapshot.capacities)
    if capacities == tuple(config.cluster.capacities):
        return config
    if len(capacities) != request.graph.num_resources:
        return config
    if not fits(request.graph.peak_demand, capacities):
        return config
    if any(c <= 0 for c in capacities):
        return config
    from dataclasses import replace

    return replace(config, cluster=replace(config.cluster, capacities=capacities))


class PolicyScheduler(Scheduler):
    """Adapts a policy factory into a :class:`Scheduler`.

    Args:
        policy_factory: zero-argument callable returning a fresh policy per
            job (policies may carry per-episode state).
        config: environment configuration used for every job.
        name: report label; defaults to the first policy's name.
    """

    def __init__(
        self,
        policy_factory: Callable[[], Policy],
        config: EnvConfig | None = None,
        name: Optional[str] = None,
    ) -> None:
        self._factory = policy_factory
        self._config = config if config is not None else EnvConfig()
        self.name = name if name is not None else policy_factory().name

    def plan(self, request: ScheduleRequest) -> Schedule:
        env = SchedulingEnv(request.graph, _planning_config(self._config, request))
        policy = self._factory()
        schedule = run_policy(env, policy)
        return Schedule(
            schedule.placements, scheduler=self.name, wall_time=schedule.wall_time
        )
