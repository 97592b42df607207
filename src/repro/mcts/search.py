"""The MCTS scheduler: iterate select / expand / simulate / backpropagate.

For every decision of the episode the search spends the Eq. (4) budget
building (or extending — the chosen child becomes the next root, so the
relevant subtree is reused) a tree of action histories, then commits the
action with the best exploitation score.  The tree holds statistics only
(a node *is* its action history, Sec. III-C): selection descends on them
alone, and the selected node's state is rebuilt by cloning the search's
environment once and replaying the path with ``step``; that copy becomes
the rollout lane.  The search's own environment only takes the committed
moves.  Per Sec. III-C/IV:

* **Selection** descends via Eq. (5) UCB — max value plus a scaled
  exploration term, mean value as tiebreaker.
* **Expansion** pops the highest-priority untried action; the candidate
  set is the environment's filtered action set, and the priority order is
  the pluggable expansion policy (random for pure MCTS, the DRL network
  for Spear).
* **Simulation** plays the pluggable rollout policy to termination; the
  value of the outcome is the *negative makespan*.  With
  ``rollout_batch > 1`` (pure MCTS only) a round first collects that many
  leaves under virtual loss, then plays their rollouts one by one.
* **Backpropagation** folds the value into every ancestor (max + mean).
* The exploration constant is ``exploration_scale x`` a greedy-packing
  makespan estimate of the instance, putting the exploration term on the
  same scale as the exploitation score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..config import EnvConfig, MctsConfig
from ..dag.graph import TaskGraph
from ..env.scheduling_env import SchedulingEnv
from ..errors import ConfigError
from ..metrics.schedule import Schedule
from ..schedulers.base import Scheduler, ScheduleRequest, _planning_config
from ..telemetry import runtime as _telemetry
from ..utils.rng import SeedLike, as_generator
from ..utils.timing import Stopwatch
from .budget import budget_at_depth
from .introspection import tree_statistics
from .node import Node
from .policies import (
    ExpansionPolicy,
    GreedyRollout,
    RandomExpansion,
    RandomRollout,
    RolloutPolicy,
)

__all__ = ["MctsScheduler", "SearchStatistics"]


@dataclass
class SearchStatistics:
    """Telemetry of one :meth:`MctsScheduler.plan` call."""

    decisions: int = 0
    iterations: int = 0
    rollouts: int = 0
    max_tree_depth: int = 0
    exploration_constant: float = 0.0
    budgets: List[int] = field(default_factory=list)
    #: Unforced single-state policy evaluations the guidance policies
    #: asked for, and how many of them a per-plan memo answered (both 0
    #: for policies that evaluate no network).
    policy_evaluations: int = 0
    policy_memo_hits: int = 0


class MctsScheduler(Scheduler):
    """Monte Carlo Tree Search scheduling (pure MCTS when the policies are
    random; Spear plugs in network-guided policies).

    Args:
        config: search parameters (budgets, filters, UCB variant).
        env_config: cluster shape; ``process_until_completion`` defaults to
            ``True`` here, implementing the Sec. III-C depth reduction
            ("only proceed until at least one task finishes").
        expansion: expansion-ordering policy (default: random).
        rollout: rollout policy (default: random work-conserving play).
        seed: seeds the default policies when they are not given.
        name: report label (default ``"mcts"``).
    """

    def __init__(
        self,
        config: MctsConfig | None = None,
        env_config: EnvConfig | None = None,
        expansion: Optional[ExpansionPolicy] = None,
        rollout: Optional[RolloutPolicy] = None,
        seed: SeedLike = None,
        name: str = "mcts",
    ) -> None:
        self.config = config if config is not None else MctsConfig()
        if env_config is None:
            env_config = EnvConfig(process_until_completion=True)
        self.env_config = env_config
        rng = as_generator(seed)
        self.expansion = expansion if expansion is not None else RandomExpansion(rng)
        self.rollout = rollout if rollout is not None else RandomRollout(rng)
        if self.config.rollout_batch > 1 and not isinstance(
            self.rollout, RandomRollout
        ):
            raise ConfigError(
                f"rollout_batch={self.config.rollout_batch} needs the "
                f"RandomRollout policy; {type(self.rollout).__name__} "
                f"cannot play waves — use rollout_batch=1"
            )
        self.name = name
        self.last_statistics: Optional[SearchStatistics] = None
        # Telemetry scratch state, live only inside one plan() call.
        self._tm_enabled = False
        self._filter_hits = 0

    # ------------------------------------------------------------------ #

    def plan(self, request: ScheduleRequest) -> Schedule:
        """Search a full schedule for ``request``; statistics are kept in
        :attr:`last_statistics`.

        Replan requests are honoured via their cluster snapshot: when the
        request carries current (e.g. crash-degraded) capacities the
        search plans against them, so the plan stays executable on the
        degraded cluster (see
        :func:`repro.schedulers.base._planning_config` for the fallback
        rules).

        When telemetry is active (:mod:`repro.telemetry`), the search
        emits one ``mcts.schedule`` span, one ``mcts.decision`` span per
        committed action (budget spent, tree size/depth, chosen action),
        and the ``mcts.iterations`` / ``mcts.rollouts`` /
        ``mcts.expansion_filter_hits`` counters; network guidance adds
        ``spear.policy_evaluations`` / ``spear.policy_memo_hits`` (how
        much of the plan's policy work was recomputation).  Disabled
        telemetry costs one no-op span per decision — the tree-walk
        statistics are only computed behind the ``enabled`` guard.
        """
        graph = request.graph
        env_config = _planning_config(self.env_config, request)
        stats = SearchStatistics()
        watch = Stopwatch()
        tm = _telemetry.active()
        self._tm_enabled = tm.enabled
        self._filter_hits = 0
        with watch, tm.span(
            "mcts.schedule",
            tasks=graph.num_tasks,
            scheduler=self.name,
        ) as search_span:
            env = SchedulingEnv(graph, env_config)
            exploration = self._exploration_constant(graph, stats, env_config)
            root = Node(untried=self._candidates(env))
            depth = 1
            try:
                self.expansion.begin_search(env)
                self.rollout.begin_search(env)
                while not env.done:
                    budget = (
                        budget_at_depth(
                            self.config.initial_budget,
                            self.config.min_budget,
                            depth,
                        )
                        if self.config.use_budget_decay
                        else self.config.initial_budget
                    )
                    stats.budgets.append(budget)
                    with tm.span(
                        "mcts.decision", depth=depth, budget=budget
                    ) as decision_span:
                        self._run_budget(root, env, exploration, stats, budget)
                        if not root.children:
                            # All candidates exhausted without one expansion —
                            # cannot happen while the env is live, but guard.
                            raise ConfigError(
                                "MCTS made no progress; zero candidates"
                            )
                        chosen = root.exploitation_child(
                            self.config.use_max_value_ucb
                        )
                        if self._tm_enabled:
                            tree = tree_statistics(root)
                            decision_span.set(
                                action=chosen.action,
                                tree_nodes=tree.nodes,
                                tree_depth=tree.max_depth,
                                tree_visits=tree.total_visits,
                            )
                        env.step(chosen.action)
                    root = chosen
                    root.parent = None  # detach: the subtree is reused
                    stats.decisions += 1
                    depth += 1
            finally:
                self.expansion.end_search(stats)
                self.rollout.end_search(stats)
            search_span.set(
                decisions=stats.decisions,
                iterations=stats.iterations,
                rollouts=stats.rollouts,
                budget_spent=sum(stats.budgets),
                max_tree_depth=stats.max_tree_depth,
                policy_evaluations=stats.policy_evaluations,
                policy_memo_hits=stats.policy_memo_hits,
            )
        if self._tm_enabled:
            tm.inc("mcts.searches")
            tm.inc("mcts.iterations", stats.iterations)
            tm.inc("mcts.rollouts", stats.rollouts)
            tm.inc("mcts.expansion_filter_hits", self._filter_hits)
            if stats.policy_evaluations:
                tm.inc("spear.policy_evaluations", stats.policy_evaluations)
                tm.inc("spear.policy_memo_hits", stats.policy_memo_hits)
        self._tm_enabled = False
        self.last_statistics = stats
        stats.exploration_constant = exploration
        return env.to_schedule(scheduler=self.name, wall_time=watch.elapsed)

    # ------------------------------------------------------------------ #

    def _candidates(self, env: SchedulingEnv) -> List[int]:
        """Expansion candidates after the (configurable) Sec. III-C filters."""
        actions = env.expansion_actions(
            work_conserving=self.config.use_expansion_filters
        )
        if self._tm_enabled and self.config.use_expansion_filters:
            if len(env.legal_actions()) > len(actions):
                self._filter_hits += 1
        return actions

    def _exploration_constant(
        self,
        graph: TaskGraph,
        stats: SearchStatistics,
        env_config: EnvConfig | None = None,
    ) -> float:
        """Scale ``c`` to the instance: greedy-packing makespan estimate
        times the configured multiplier (Sec. IV)."""
        probe = SchedulingEnv(
            graph, env_config if env_config is not None else self.env_config
        )
        estimate = GreedyRollout().rollout(probe)
        return self.config.exploration_scale * max(1, estimate)

    # --------------------------- the tree walk ------------------------ #

    def _run_budget(
        self,
        root: Node,
        env: SchedulingEnv,
        exploration: float,
        stats: SearchStatistics,
        budget: int,
    ) -> None:
        """Spend one decision's budget ``rollout_batch`` leaves at a time.

        Each round collects up to ``rollout_batch`` distinct leaves by
        descending under virtual loss (each selected edge's pending count
        rises, steering later descents elsewhere), plays every
        non-terminal leaf's rollout one after another in collection order
        (with the same :meth:`RolloutPolicy.rollout` a width-1 round uses)
        and backpropagates the values,
        clearing the virtual losses on the way up.  One collected leaf
        costs one budget unit.  At width 1 no virtual loss is pending
        when a descent starts, so the round is the classic sequential
        iteration: select, expand, simulate, backpropagate.

        ``env`` is the search's environment at ``root``'s state; the
        round only reads and clones it.
        """
        width = self.config.rollout_batch
        spent = 0
        while spent < budget:
            want = min(width, budget - spent)
            leaves: List[Node] = []
            lanes: List[SchedulingEnv] = []
            while want > 0:
                taken = self._collect(
                    root, env, exploration, want, leaves, lanes, stats
                )
                spent += taken
                want -= taken
            if not lanes:
                continue
            makespans = [self.rollout.rollout(lane) for lane in lanes]
            stats.rollouts += len(lanes)
            for node, makespan in zip(leaves, makespans):
                self._backpropagate(node, float(-makespan), stats)

    def _collect(
        self,
        root: Node,
        env: SchedulingEnv,
        exploration: float,
        want: int,
        leaves: List[Node],
        lanes: List[SchedulingEnv],
        stats: SearchStatistics,
    ) -> int:
        """One virtual-loss descent collecting up to ``want`` leaves.

        Descends on node statistics alone to the most promising
        expandable node, then expands up to ``want`` of its untried
        actions as sibling leaves in one go — the same frontier repeated
        single-leaf descents would reach (virtual loss steers consecutive
        descents into a node's remaining untried actions anyway), at one
        descent's cost instead of ``k``.  The node's state is rebuilt by
        cloning ``env`` once and replaying the path with ``step``; each
        sibling but the last steps its own clone of that state, the last
        steps the replayed one, so every expanded leaf costs one copy.
        Terminal leaves are evaluated and backpropagated immediately; the
        rest are appended to ``leaves`` / ``lanes``.  A re-selected
        terminal node is backpropagated with the value its first
        evaluation recorded, without touching an environment.  ``env`` is
        only read.  Returns the number of budget units consumed (= leaves
        collected).
        """
        use_max = self.config.use_max_value_ucb
        node = root
        path = []  # actions of the selected edges, root first
        while not node.terminal and not node.untried and node.children:
            node = node.best_child(exploration, use_max, virtual_loss=True)
            node.vloss += 1
            path.append(node.action)
        if node.terminal:
            # Re-selected terminal node: one more (immediate) evaluation of
            # its deterministic value.
            taken = 1
            self._backpropagate(node, node.max_value, stats)
        elif not node.untried:
            # Dead end without being terminal cannot happen on a live
            # environment; guard so a livelock is loud, not silent.
            raise ConfigError("MCTS selection reached a non-terminal dead end")
        else:
            walk = env.clone()
            for action in path:
                walk.step(action)
            if len(node.untried) > 1:
                node.untried = self.expansion.prioritize(walk, node.untried)
            taken = min(want, len(node.untried))
            finished = []  # (terminal child, its value)
            for sibling in range(taken):
                action = node.untried.pop(0)
                lane = walk if sibling == taken - 1 else walk.clone()
                lane.step(action)
                done = lane.done
                child = Node(
                    parent=node,
                    action=action,
                    untried=[] if done else self._candidates(lane),
                    terminal=done,
                )
                node.children[action] = child
                if done:
                    finished.append((child, float(-lane.makespan)))
                else:
                    child.vloss += 1
                    leaves.append(child)
                    lanes.append(lane)
            # The sibling copies are the search's too: one per leaf.
            env.clones_made += walk.clones_made
            # Each of the ``taken`` eventual backpropagations decrements
            # every selected node once; the descent incremented them once,
            # so top the path up to keep pending counts balanced.
            if taken > 1:
                ancestor: Optional[Node] = node
                while ancestor is not None and ancestor is not root:
                    ancestor.vloss += taken - 1
                    ancestor = ancestor.parent
            for child, value in finished:
                self._backpropagate(child, value, stats)
        stats.iterations += taken
        return taken

    def _backpropagate(
        self, node: Node, value: float, stats: SearchStatistics
    ) -> None:
        """Fold one simulation value into the leaf's path, releasing the
        virtual losses the collection pass placed there.

        The statistics fold is ``Node.update`` inlined: this loop runs
        once per tree edge per simulation, and the method call alone is
        measurable at batched-search rates.
        """
        depth = 0
        walker: Optional[Node] = node
        while walker is not None:
            walker.visits += 1
            walker.sum_value += value
            if value > walker.max_value:
                walker.max_value = value
            if walker.vloss:
                walker.vloss -= 1
            walker = walker.parent
            depth += 1
        if depth > stats.max_tree_depth:
            stats.max_tree_depth = depth
