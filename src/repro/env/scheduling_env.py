"""The scheduling environment (Sec. III-B).

:class:`SchedulingEnv` is a deterministic, clonable MDP:

* **State** — cluster occupancy + the job's ready / pending / finished
  bookkeeping.  Ready tasks beyond the ``max_ready`` visibility window wait
  in a FIFO backlog ("if there are more ready tasks, the remaining tasks
  will be placed in a backlog queue", Sec. V-A).
* **Actions** — ``PROCESS`` advances time (one slot, or — in the MCTS
  event-skipping mode — until the next task completion); index ``i``
  starts the ``i``-th visible ready task *now* without advancing time.
* **Reward** — ``-dt`` per processing action, so an episode's return is
  exactly the negative makespan (Sec. III-D).
* **Termination** — every task has finished.

Determinism + cheap :meth:`clone` are what make the same class usable as
the MCTS simulation model and the DRL training environment: a search
reaches a tree node by cloning its root and replaying the node's action
history with :meth:`~SchedulingEnv.step`.

Besides that single-action dynamics the class plays whole episodes in
one call, because a search spends its time in rollouts:
:meth:`~SchedulingEnv.random_playout` for pure MCTS and
:meth:`~SchedulingEnv.policy_playout`, which calls a policy back only in
states that offer a choice, for Spear and for the list heuristics.
"""

from __future__ import annotations

import heapq  # own heap: kernel dispatch measured too slow for rollouts
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..cluster.state import ClusterState
from ..cluster.resources import validate_demands
from ..config import EnvConfig
from ..dag.graph import TaskGraph
from ..errors import CapacityError, EnvironmentStateError
from ..metrics.schedule import Schedule
from ..telemetry import runtime as _telemetry
from ..utils.rng import bounded_draw
from .actions import PROCESS, Action

__all__ = ["SchedulingEnv", "StepResult", "step_limit_exceeded"]


def step_limit_exceeded(limit: int) -> EnvironmentStateError:
    """The error every policy episode loop raises at its step cap."""
    return EnvironmentStateError(
        f"episode exceeded its step limit ({limit}); livelocked policy"
    )


class StepResult(NamedTuple):
    """Outcome of one :meth:`SchedulingEnv.step` call.

    A ``NamedTuple`` rather than a dataclass: a tree walk's path replay
    allocates one per process step, and tuple construction is several
    times cheaper.  Schedule steps return one cached result per task, and
    neither playout allocates any.
    """

    reward: int
    done: bool
    completed: Tuple[int, ...]
    scheduled: Optional[int] = None


class SchedulingEnv:
    """Deterministic scheduling MDP over one job DAG.

    State only moves forward: :meth:`step` and the two playouts mutate
    it, and a caller that needs an earlier state keeps a :meth:`clone`
    (the per-graph lookup tables are shared, so a copy costs the mutable
    bookkeeping only) and replays actions on it.

    Args:
        graph: the job to schedule.  Every task's demand vector must fit
            within cluster capacity or construction fails fast.
        config: environment shape (cluster capacities, visibility window,
            processing granularity).

    Example:
        >>> from repro.dag import chain_dag
        >>> from repro.config import EnvConfig, ClusterConfig
        >>> env = SchedulingEnv(
        ...     chain_dag([2, 3]),
        ...     EnvConfig(cluster=ClusterConfig(capacities=(4, 4), horizon=8)),
        ... )
        >>> env.step(0).scheduled  # start the chain head
        0
        >>> while not env.done:  # start what is ready, else wait for it
        ...     _ = env.step(0 if env.visible_ready() else PROCESS)
        >>> env.makespan
        5
    """

    def __init__(self, graph: TaskGraph, config: EnvConfig | None = None) -> None:
        self.graph = graph
        self.config = config if config is not None else EnvConfig()
        capacities = self.config.cluster.capacities
        if len(capacities) != graph.num_resources:
            raise EnvironmentStateError(
                f"cluster has {len(capacities)} resource dims, graph has "
                f"{graph.num_resources}"
            )
        for task in graph:
            validate_demands(task.demands, capacities, label=task.label())
        # Hot-path lookup tables, shared by reference across clones (the
        # graph is immutable, so these never change after construction).
        self._demands: Dict[int, Tuple[int, ...]] = {
            task.task_id: task.demands for task in graph
        }
        self._runtimes: Dict[int, int] = {
            task.task_id: task.runtime for task in graph
        }
        # Ascending, so the children one completion makes ready join the
        # ready queue in id order (the deterministic arrival order)
        # without a sort.
        self._children: Mapping[int, Tuple[int, ...]] = graph.child_table()
        self._num_tasks: int = graph.num_tasks
        # Schedule-step results are fully determined by the started task id,
        # so one immutable StepResult per task covers every schedule step of
        # every clone — no allocation on that branch of the hot path.
        self._sched_results: Dict[int, StepResult] = {
            tid: StepResult(0, False, (), tid) for tid in graph.task_ids
        }
        self.reset()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Return the environment to the initial state of the episode."""
        graph = self.graph
        # Hoisted config scalars: one attribute hop instead of two on the
        # rollout hot path.
        self._max_ready: int = self.config.max_ready
        self._until_completion: bool = self.config.process_until_completion
        self.cluster = ClusterState(self.config.cluster.capacities)
        self._unmet: Dict[int, int] = {
            tid: len(graph.parents(tid)) for tid in graph.task_ids
        }
        # Ready queue holds *all* ready tasks in arrival order; the visible
        # window is its first ``max_ready`` entries.
        self._ready: List[int] = [
            tid for tid in graph.topological_order() if self._unmet[tid] == 0
        ]
        self._finished: set[int] = set()
        self._starts: Dict[int, int] = {}
        self.steps_taken: int = 0
        # Plain-int instrumentation counters: incremented unconditionally
        # (an integer add is far below timer noise on these paths) and
        # flushed to the telemetry pipeline once per episode by
        # :meth:`to_schedule` — never per step.
        self.clones_made: int = 0
        # State-version counter for the memoized legal-action set: bumped by
        # every step, so a cached computation is reused only while the
        # state is untouched.
        self._version: int = 0
        self._actions_cache: List[Action] = []
        self._actions_version: int = -1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """True iff every task in the graph has finished."""
        return len(self._finished) == self._num_tasks

    @property
    def now(self) -> int:
        """Current simulation time (slots)."""
        return self.cluster.now

    @property
    def makespan(self) -> int:
        """Completion time of the job; only meaningful once :attr:`done`."""
        if not self.done:
            raise EnvironmentStateError("episode not finished")
        return self.cluster.now

    @property
    def num_finished(self) -> int:
        """Number of completed tasks."""
        return len(self._finished)

    @property
    def backlog_size(self) -> int:
        """Ready tasks hidden beyond the visibility window."""
        return max(0, len(self._ready) - self.config.max_ready)

    def visible_ready(self) -> List[int]:
        """Task ids in the visibility window, in backlog arrival order."""
        return self._ready[: self._max_ready]

    def all_ready(self) -> List[int]:
        """All ready task ids (visible + backlog)."""
        return list(self._ready)

    def running_ids(self) -> List[int]:
        """Ids of currently running tasks in completion order."""
        return self.cluster.running_ids()

    def finished_ids(self) -> List[int]:
        """Ids of completed tasks (sorted)."""
        return sorted(self._finished)

    def unfinished_ids(self) -> List[int]:
        """Ids of tasks not yet completed (running, ready or pending)."""
        return [tid for tid in self.graph.task_ids if tid not in self._finished]

    def start_times(self) -> Dict[int, int]:
        """Start slot of every task started so far."""
        return dict(self._starts)

    def legal_actions(self) -> List[Action]:
        """Actions valid in the current state.

        A schedule action is legal when the task fits in currently free
        capacity; ``PROCESS`` is legal whenever at least one task is
        running (processing an idle cluster is the "superficial action"
        Sec. III-A excludes from the search space).

        The computation is memoized per state version: repeated queries of
        an unchanged state (policies typically ask two or three times per
        decision) cost one list copy.  ``PROCESS``, when legal, is always
        the last element.
        """
        if self._actions_version != self._version:
            self._refresh_actions()
        return list(self._actions_cache)

    def _refresh_actions(self) -> None:
        """Recompute the memoized legal-action list for the current state."""
        actions: List[Action] = []
        cluster = self.cluster
        available = cluster._available
        demands_of = self._demands
        append = actions.append
        index = 0
        for tid in self._ready[: self._max_ready]:
            for demand, free in zip(demands_of[tid], available):
                if demand > free:
                    break
            else:
                append(index)
            index += 1
        if cluster._running:
            append(PROCESS)
        self._actions_cache = actions
        self._actions_version = self._version

    def action_mask(self) -> List[bool]:
        """Legality mask over the fixed action space.

        Entry ``i < max_ready`` is True iff scheduling visible slot ``i``
        is legal now; the final entry is True iff ``PROCESS`` is legal.
        Useful for masking network logits without materializing per-state
        action lists.
        """
        mask = [False] * (self.config.max_ready + 1)
        for action in self.legal_actions():
            mask[action] = True  # PROCESS == -1 lands on the last entry
        return mask

    def expansion_actions(self, work_conserving: bool = True) -> List[Action]:
        """Candidate actions for MCTS expansion (Sec. III-C filters).

        The two breadth filters of Sec. III-C map onto this environment's
        immediate-start semantics as follows:

        * "if there are no tasks in the cluster, then the processing action
          is redundant" — structural here: ``PROCESS`` is only legal with
          running tasks, in both modes.
        * "we only consider the tasks that can be scheduled to start before
          the earliest finish time of tasks in the cluster" — a task starts
          the moment it is placed, so the startable-now set is exactly the
          fitting set; the bite of the filter is that whenever *some* task
          fits, deferring every placement via ``PROCESS`` wastes a
          scheduling opportunity: with ``work_conserving=True`` (Spear's
          setting) ``PROCESS`` is therefore dropped unless no visible ready
          task fits.

        With ``work_conserving=False`` (the raw-space ablation) the full
        legal action set is returned and the search may idle capacity on
        purpose.
        """
        if self._actions_version != self._version:
            self._refresh_actions()
        actions = self._actions_cache
        if work_conserving and len(actions) > 1 and actions[-1] == PROCESS:
            # PROCESS, when present, is always the last element of the
            # legal action list, so the work-conserving filter is a
            # constant-time truncation instead of a scan.
            return actions[:-1]
        return list(actions)

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #

    def step(self, action: Action) -> StepResult:
        """Apply ``action``; return reward, termination and side effects.

        The reference dynamics: the two playout loops inline it, and
        ``tests/property/test_dynamics_differential.py`` holds the three
        to the same schedules.

        Raises:
            EnvironmentStateError: on an illegal action (episode done,
                index out of window, task does not fit, or PROCESS on an
                idle cluster).
        """
        finished = self._finished
        if len(finished) == self._num_tasks:
            raise EnvironmentStateError("episode already finished")
        self.steps_taken += 1
        if action == PROCESS:
            # Inlined release, as in the playouts: a tree walk replays
            # its path with this method.
            cluster = self.cluster
            heap = cluster._running
            if not heap:
                raise EnvironmentStateError("PROCESS on an idle cluster")
            before = cluster.now
            now = heap[0][0] if self._until_completion else before + 1
            cluster.now = now
            available = cluster._available
            completed = []
            ready = self._ready
            unmet = self._unmet
            children = self._children
            while heap and heap[0][0] <= now:
                finish, tid, demands = heapq.heappop(heap)
                for r, demand in enumerate(demands):
                    available[r] += demand
                completed.append(tid)
                finished.add(tid)
                for child in children[tid]:
                    remaining = unmet[child] - 1
                    unmet[child] = remaining
                    if remaining == 0:
                        ready.append(child)
            self._version += 1
            done = len(finished) == self._num_tasks
            return StepResult(before - now, done, tuple(completed))
        ready = self._ready
        num_visible = len(ready)
        if num_visible > self._max_ready:
            num_visible = self._max_ready
        if not 0 <= action < num_visible:
            raise EnvironmentStateError(
                f"schedule index {action} out of range (visible={num_visible})"
            )
        tid = ready[action]
        # Inlined ClusterState.start (demand shapes and runtimes were
        # validated once at construction); the free-capacity fit check
        # always runs and raises the same CapacityError.
        cluster = self.cluster
        demands = self._demands[tid]
        available = cluster._available
        for demand, free in zip(demands, available):
            if demand > free:
                raise CapacityError(
                    f"task {tid}: demands {demands} exceed free "
                    f"capacity {cluster.available}"
                )
        for r, demand in enumerate(demands):
            available[r] -= demand
        heapq.heappush(
            cluster._running, (cluster.now + self._runtimes[tid], tid, demands)
        )
        del ready[action]
        self._starts[tid] = cluster.now
        self._version += 1
        return self._sched_results[tid]

    def random_playout(self, rng, limit: int) -> int:
        """Play uniformly random work-conserving actions until done.

        The fully fused rollout loop: one method call per *episode* instead
        of per step, with the dynamics of :meth:`step` inlined and every
        loop-invariant attribute hoisted into a local.  Semantically this
        is exactly ``while not done: step(choice(expansion_actions()))``
        with a choice among ``n > 1`` candidates drawn as
        ``rng.integers(0, n)`` — the same draws, bounds and order as
        ``RandomPolicy(work_conserving=True)``, so the RNG stream and the
        trajectory are bit-identical to the unfused loop (the equivalence
        tests compare final states *and* generator states).  The draw is
        made by :func:`~repro.utils.rng.bounded_draw`, which equals
        ``integers(0, n)`` bit for bit without NumPy's per-call overhead.
        A single candidate is taken without a draw: ``integers(0, 1)``
        returns 0 and leaves the bit generator where it was (pinned by
        ``test_integers_0_1_consumes_no_state``), and most steps of a
        playout are forced.  MCTS runs one of these per budget unit; it
        is the hottest loop in the library.

        The candidate set is kept incrementally.  A start only shrinks
        free capacity, so after starting window index ``c`` the next
        candidates are the previous ones other than ``c`` that still fit
        (indices above ``c`` shift down by one), plus the last window slot
        when the removal pulled a backlog task into it and it fits.  Only
        a process step rescans the window.  The list stays ascending, so
        every draw picks what a rescan's list would.

        A start pushes a plain ``(finish, task_id, demands)`` tuple.  The
        clock and, with two resources, the free capacity stay in locals
        for the whole playout and are written back once, by the
        ``finally`` that also publishes ``steps_taken``, so a playout cut
        short by an error leaves the state it stopped in.

        Args:
            rng: ``numpy.random.Generator`` to draw action choices from.
            limit: step cap.

        Returns:
            The episode makespan.

        Raises:
            EnvironmentStateError: when ``limit`` is exceeded (a livelocked
                rollout is a bug, not a result) or a state has no legal
                action.  ``steps_taken`` then counts the steps played.
        """
        cluster = self.cluster
        heap = cluster._running
        available = cluster._available
        ready = self._ready
        finished = self._finished
        unmet = self._unmet
        starts = self._starts
        demands_of = self._demands
        runtimes = self._runtimes
        children = self._children
        num_tasks = self._num_tasks
        max_ready = self._max_ready
        until_completion = self._until_completion
        two_dim = len(available) == 2
        draw = bounded_draw(rng)
        heappush = heapq.heappush
        heappop = heapq.heappop
        now = cluster.now
        if two_dim:
            free0, free1 = available
        unfinished = num_tasks - len(finished)
        steps_before = self.steps_taken
        version_before = self._version
        steps = 0
        # Fitting window indices (the work-conserving candidate set), or
        # ``None`` when the window must be rescanned.
        actions: Optional[List[int]] = None
        try:
            while unfinished:
                if steps >= limit:
                    raise step_limit_exceeded(limit)
                if actions is None:
                    actions = []
                    visible = ready if len(ready) <= max_ready else ready[:max_ready]
                    index = 0
                    if two_dim:
                        for tid in visible:
                            demands = demands_of[tid]
                            if demands[0] <= free0 and demands[1] <= free1:
                                actions.append(index)
                            index += 1
                    else:
                        for tid in visible:
                            for demand, free in zip(demands_of[tid], available):
                                if demand > free:
                                    break
                            else:
                                actions.append(index)
                            index += 1
                n = len(actions)
                if n:
                    # Schedule a uniformly random fitting task (PROCESS is
                    # filtered out whenever something fits: work conservation).
                    chosen = actions[draw(n)] if n > 1 else actions[0]
                    tid = ready[chosen]
                    demands = demands_of[tid]
                    heappush(heap, (now + runtimes[tid], tid, demands))
                    del ready[chosen]
                    starts[tid] = now
                    steps += 1
                    # The next candidates: the survivors that still fit,
                    # shifted past the removed slot, then the backlog task
                    # the removal pulled into the last slot, if it fits.
                    if len(ready) >= max_ready:
                        actions.append(max_ready)  # shifts onto the last slot
                    survivors = []
                    if two_dim:
                        free0 -= demands[0]
                        free1 -= demands[1]
                        for index in actions:
                            if index != chosen:
                                if index > chosen:
                                    index -= 1
                                demands = demands_of[ready[index]]
                                if demands[0] <= free0 and demands[1] <= free1:
                                    survivors.append(index)
                    else:
                        for r, demand in enumerate(demands):
                            available[r] -= demand
                        for index in actions:
                            if index != chosen:
                                if index > chosen:
                                    index -= 1
                                for demand, free in zip(
                                    demands_of[ready[index]], available
                                ):
                                    if demand > free:
                                        break
                                else:
                                    survivors.append(index)
                    actions = survivors
                    continue
                # Nothing fits: PROCESS is the only candidate.
                if not heap:
                    raise EnvironmentStateError("no legal actions")
                steps += 1
                now = heap[0][0] if until_completion else now + 1
                actions = None
                while heap and heap[0][0] <= now:
                    finish, tid, demands = heappop(heap)
                    if two_dim:
                        free0 += demands[0]
                        free1 += demands[1]
                    else:
                        for r, demand in enumerate(demands):
                            available[r] += demand
                    finished.add(tid)
                    unfinished -= 1
                    for child in children[tid]:
                        remaining = unmet[child] - 1
                        unmet[child] = remaining
                        if remaining == 0:
                            ready.append(child)
        finally:
            cluster.now = now
            if two_dim:
                available[0] = free0
                available[1] = free1
            self.steps_taken = steps_before + steps
            self._version = version_before + steps
        return now

    def policy_playout(
        self,
        decide: Callable[[List[Action]], Action],
        forced: Optional[Callable[[], object]],
        limit: int,
        work_conserving: bool = True,
    ) -> int:
        """Play a callback policy until done, one call per *real* decision.

        The guided twin of :meth:`random_playout`: semantically
        ``while not done: step(select(self))`` for a policy that chooses
        among :meth:`expansion_actions` (``work_conserving=True``) or
        :meth:`legal_actions` (``False``), with the candidate set, the
        schedule step and the process step inlined.  Most decisions of a
        playout have exactly one candidate; those never leave this loop —
        the move is applied after calling ``forced()``, the hook through
        which a sampling policy spends the one uniform its draw would
        have.  Only a state with two or more candidates costs a call into
        the policy (DESIGN.md Sec. 16.7).

        The two playout loops share no code on purpose: routed through
        this callback loop a random playout, whose whole step is a
        microsecond or two, was measured ~15 % slower (DESIGN.md Sec. 16.7).

        Args:
            decide: called with the candidate actions (fitting visible
                indices ascending, then ``PROCESS`` when it is one) of
                every state that has more than one; returns the action to
                take.  The environment is consistent while it runs —
                ``legal_actions()``, ``steps_taken``, ``signature()`` and
                every other query read the state being decided — and it
                must only read.  The returned action gets :meth:`step`'s
                checks (index range, free capacity, ``PROCESS`` on an idle
                cluster).
            forced: called with no arguments before every single-candidate
                move, or ``None`` for a policy that draws nothing there.
            limit: step cap, counted over forced and decided moves alike.
            work_conserving: drop ``PROCESS`` from the candidates whenever
                some visible task fits.

        Returns:
            The episode makespan.

        Raises:
            EnvironmentStateError: when ``limit`` is exceeded (a livelocked
                rollout is a bug, not a result), when a state has no legal
                action, or on an illegal action from ``decide``.
            CapacityError: when ``decide`` starts a task that does not fit.
        """
        cluster = self.cluster
        heap = cluster._running
        available = cluster._available
        ready = self._ready
        finished = self._finished
        unmet = self._unmet
        starts = self._starts
        demands_of = self._demands
        runtimes = self._runtimes
        children = self._children
        num_tasks = self._num_tasks
        max_ready = self._max_ready
        until_completion = self._until_completion
        two_dim = len(available) == 2
        heappush = heapq.heappush
        heappop = heapq.heappop
        steps_before = self.steps_taken
        version_before = self._version
        steps = 0
        try:
            while len(finished) != num_tasks:
                if steps >= limit:
                    raise step_limit_exceeded(limit)
                visible = ready if len(ready) <= max_ready else ready[:max_ready]
                actions: List[Action] = []
                index = 0
                if two_dim:
                    free0, free1 = available
                    for tid in visible:
                        demands = demands_of[tid]
                        if demands[0] <= free0 and demands[1] <= free1:
                            actions.append(index)
                        index += 1
                else:
                    for tid in visible:
                        for demand, free in zip(demands_of[tid], available):
                            if demand > free:
                                break
                        else:
                            actions.append(index)
                        index += 1
                if heap and not (work_conserving and actions):
                    actions.append(PROCESS)
                if len(actions) == 1:
                    action = actions[0]
                    if forced is not None:
                        forced()
                elif actions:
                    # Publish the counters the inlined steps keep in locals
                    # before the policy looks at the environment.
                    self.steps_taken = steps_before + steps
                    self._version = version_before + steps
                    action = decide(actions)
                    if action == PROCESS:
                        if not heap:
                            raise EnvironmentStateError(
                                "PROCESS on an idle cluster"
                            )
                    elif not 0 <= action < len(visible):
                        raise EnvironmentStateError(
                            f"schedule index {action} out of range "
                            f"(visible={len(visible)})"
                        )
                    else:
                        tid = ready[action]
                        demands = demands_of[tid]
                        for demand, free in zip(demands, available):
                            if demand > free:
                                raise CapacityError(
                                    f"task {tid}: demands {demands} exceed "
                                    f"free capacity {cluster.available}"
                                )
                else:
                    raise EnvironmentStateError("no legal actions")
                steps += 1
                if action != PROCESS:
                    tid = ready[action]
                    demands = demands_of[tid]
                    for r, demand in enumerate(demands):
                        available[r] -= demand
                    heappush(heap, (cluster.now + runtimes[tid], tid, demands))
                    del ready[action]
                    starts[tid] = cluster.now
                    continue
                now = heap[0][0] if until_completion else cluster.now + 1
                cluster.now = now
                while heap and heap[0][0] <= now:
                    finish, tid, demands = heappop(heap)
                    for r, demand in enumerate(demands):
                        available[r] += demand
                    finished.add(tid)
                    for child in children[tid]:
                        remaining = unmet[child] - 1
                        unmet[child] = remaining
                        if remaining == 0:
                            ready.append(child)
        finally:
            self.steps_taken = steps_before + steps
            self._version = version_before + steps
        return cluster.now

    # ------------------------------------------------------------------ #
    # copying / export
    # ------------------------------------------------------------------ #

    def clone(self) -> "SchedulingEnv":
        """Cheap independent copy sharing the immutable graph/config."""
        copy = SchedulingEnv.__new__(SchedulingEnv)
        copy.graph = self.graph
        copy.config = self.config
        copy.cluster = self.cluster.clone()
        copy._unmet = dict(self._unmet)
        copy._ready = list(self._ready)
        copy._finished = set(self._finished)
        copy._starts = dict(self._starts)
        copy.steps_taken = self.steps_taken
        copy.clones_made = 0
        self.clones_made += 1
        copy._max_ready = self._max_ready
        copy._until_completion = self._until_completion
        # Immutable per-graph tables: shared by reference.
        copy._demands = self._demands
        copy._runtimes = self._runtimes
        copy._children = self._children
        copy._num_tasks = self._num_tasks
        copy._sched_results = self._sched_results
        # The memoized action list is valid for the identical state; cache
        # entries are replaced wholesale (never mutated in place), so
        # sharing the current one is safe.
        copy._version = self._version
        copy._actions_cache = self._actions_cache
        copy._actions_version = self._actions_version
        return copy

    def signature(self) -> Tuple:
        """Hashable snapshot for transposition/uniqueness checks."""
        return (
            self.cluster.signature(),
            tuple(self._ready),
            frozenset(self._finished),
        )

    def window_signature(self) -> Tuple:
        """Hashable snapshot of what the visibility window shows.

        The visible ready ids in order, the ready count (beyond the
        window it is the backlog length), the finished *count* and the
        cluster's :meth:`~repro.cluster.state.ClusterState.occupancy` —
        coarser than :meth:`signature`: states equal here may differ in
        which tasks ran or wait in the backlog, and in the absolute
        clock, none of which a window observation can see.
        """
        ready = self._ready
        return (
            tuple(ready[: self._max_ready]),
            len(ready),
            len(self._finished),
            self.cluster.occupancy(),
        )

    def to_schedule(self, scheduler: str = "unknown", wall_time: float = 0.0) -> Schedule:
        """Export the finished episode as a validated-shape :class:`Schedule`.

        The per-episode telemetry flush point: the environment's plain-int
        counters (steps, clones) land in the active pipeline here, once
        per completed episode, so the step hot paths carry no emit-time
        work at all.

        Raises:
            EnvironmentStateError: if the episode has not terminated.
        """
        if not self.done:
            raise EnvironmentStateError("episode not finished")
        tm = _telemetry.active()
        if tm.enabled:
            tm.inc("env.episodes")
            tm.inc("env.steps", self.steps_taken)
            tm.inc("env.clones", self.clones_made)
            tm.event(
                "env.episode",
                scheduler=scheduler,
                makespan=self.cluster.now,
                steps=self.steps_taken,
                clones=self.clones_made,
                tasks=self._num_tasks,
            )
        return Schedule.from_starts(
            self._starts, self.graph, scheduler=scheduler, wall_time=wall_time
        )

    def __repr__(self) -> str:
        return (
            f"SchedulingEnv(now={self.now}, ready={len(self._ready)}, "
            f"running={self.cluster.num_running}, finished={len(self._finished)}/"
            f"{self.graph.num_tasks})"
        )
