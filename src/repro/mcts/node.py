"""Search-tree nodes.

Each node represents the environment state reached by a unique action
history ("given the same initial state, we can always reach the same state
given the same sequence of actions", Sec. III-C) — so a node stores
statistics, not a state: the search re-materializes the state by cloning
the root's environment and replaying the action path on the copy.  Per
Sec. IV, every node tracks **both** the maximum and the mean of the
rollout values observed through it: selection exploits the maximum
(Eq. 5) and breaks ties on the mean.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..env.actions import Action

__all__ = ["Node"]


class Node:
    """One state in the MCTS tree, identified by its action history.

    Args:
        parent: parent node, ``None`` for the root.
        action: the action that led here from the parent.
        untried: expansion candidates not yet turned into children, in
            priority order (the expansion policy decides the order; the
            search pops from the front).
        terminal: whether the episode has finished in the node's state
            (whoever expands the node knows; the node cannot look).
    """

    __slots__ = (
        "parent",
        "action",
        "children",
        "untried",
        "visits",
        "max_value",
        "sum_value",
        "terminal",
        "vloss",
    )

    def __init__(
        self,
        parent: Optional["Node"] = None,
        action: Optional[Action] = None,
        untried: Optional[List[Action]] = None,
        terminal: bool = False,
    ) -> None:
        self.parent = parent
        self.action = action
        self.children: Dict[Action, "Node"] = {}
        self.untried: List[Action] = list(untried) if untried is not None else []
        self.visits: int = 0
        self.max_value: float = -math.inf
        self.sum_value: float = 0.0
        self.terminal: bool = terminal
        #: Pending virtual losses: number of in-flight (collected but not
        #: yet backpropagated) batched simulations through this node.
        self.vloss: int = 0

    # ------------------------------------------------------------------ #

    @property
    def fully_expanded(self) -> bool:
        """True iff every candidate action has a child node."""
        return not self.untried

    @property
    def mean_value(self) -> float:
        """Average rollout value through this node (0 before any visit)."""
        if self.visits == 0:
            return 0.0
        return self.sum_value / self.visits

    def ucb_score(self, child: "Node", c: float, use_max: bool = True) -> float:
        """Eq. (5): ``max_i + c * sqrt(ln n / n_i)``.

        With ``use_max=False`` falls back to the classic mean-value UCB of
        Eq. (1) (the ablation baseline).  An unvisited child scores
        infinity so it is selected first.
        """
        if child.visits == 0:
            return math.inf
        exploit = child.max_value if use_max else child.mean_value
        explore = c * math.sqrt(math.log(max(self.visits, 1)) / child.visits)
        return exploit + explore

    def best_child(
        self, c: float, use_max: bool = True, virtual_loss: bool = False
    ) -> "Node":
        """Child maximizing :meth:`ucb_score`; mean value breaks ties,
        then visit count, then action id (determinism).

        Hand-rolled argmax over the same key tuple a ``max(..., key=...)``
        would build: ``log(visits)`` is hoisted out of the child loop and
        no per-child lambda frame is allocated — this runs once per edge
        of every selection descent.

        With ``virtual_loss`` (how the search calls it) each child's
        pending in-flight count depresses its score: in-flight simulations
        inflate the exploration denominator, an unvisited child with
        in-flight work scores ``-inf`` instead of ``inf`` (so one wave
        fans out over distinct leaves), and each pending loss subtracts one
        exploration-scale unit from the exploitation term.  While no loss
        is pending — always, at ``rollout_batch=1`` — the flag changes
        nothing: the score is :meth:`ucb_score`.
        """
        if not self.children:
            raise ValueError("node has no children")
        if len(self.children) == 1:
            # Forced move (single-candidate chains are common deep in the
            # tree): the argmax over one child is that child.
            return next(iter(self.children.values()))
        log_n = math.log(self.visits) if self.visits > 1 else 0.0
        sqrt = math.sqrt
        best: Optional["Node"] = None
        best_score = best_mean = -math.inf
        best_visits = 0
        best_neg_action = 0
        for child in self.children.values():
            visits = child.visits
            pending = child.vloss if virtual_loss else 0
            if visits == 0:
                score = -math.inf if pending else math.inf
                mean = 0.0
            else:
                mean = child.sum_value / visits
                exploit = child.max_value if use_max else mean
                score = exploit + c * sqrt(log_n / (visits + pending))
                if pending:
                    score -= c * pending
            # Ordered comparison on (score, mean, visits, -action) without
            # building the key tuple: scores almost always differ, so the
            # tie-break fields are only touched on exact score ties.
            if best is not None:
                if score < best_score:
                    continue
                if score == best_score:
                    if mean < best_mean:
                        continue
                    if mean == best_mean:
                        if visits < best_visits:
                            continue
                        if visits == best_visits:
                            action = child.action
                            neg = -(action if action is not None else 0)
                            if neg <= best_neg_action:
                                continue
            best = child
            best_score = score
            best_mean = mean
            best_visits = visits
            action = child.action
            best_neg_action = -(action if action is not None else 0)
        assert best is not None
        return best

    def commit_key(self, use_max: bool = True) -> Tuple[float, float, int, int]:
        """This node's rank among its siblings when the search commits:
        exploitation score (no exploration term), then mean value, visits
        and the lower action."""
        return (
            self.max_value if use_max else self.mean_value,
            self.mean_value,
            self.visits,
            -(self.action if self.action is not None else 0),
        )

    def exploitation_child(self, use_max: bool = True) -> "Node":
        """Child with the best :meth:`commit_key` — the action actually
        committed after the budget is spent."""
        if not self.children:
            raise ValueError("node has no children")
        return max(self.children.values(), key=lambda ch: ch.commit_key(use_max))

    def update(self, value: float) -> None:
        """Fold one rollout outcome into this node's statistics.

        "For each node, the value is updated to be the maximum of current
        value and new value ... we also keep track of the average of all
        relevant simulations to use as a tiebreaker." (Sec. III-C)
        """
        self.visits += 1
        self.sum_value += value
        if value > self.max_value:
            self.max_value = value

    def __repr__(self) -> str:
        return (
            f"Node(action={self.action}, visits={self.visits}, "
            f"max={self.max_value:.1f}, mean={self.mean_value:.1f}, "
            f"children={len(self.children)}, untried={len(self.untried)})"
        )
