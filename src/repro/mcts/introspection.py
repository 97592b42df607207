"""MCTS tree introspection and debugging aids.

``render_tree`` prints the search tree's most-visited spine with per-node
statistics — the practical tool for answering "why did the search commit
this action?" — and ``tree_statistics`` aggregates structural counters
used by tests and tuning sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..env.actions import PROCESS
from .node import Node

__all__ = ["render_tree", "tree_statistics", "TreeStatistics"]


def _action_label(action: Optional[int]) -> str:
    if action is None:
        return "root"
    if action == PROCESS:
        return "process"
    return f"schedule[{action}]"


def render_tree(
    node: Node,
    max_depth: int = 3,
    max_children: int = 4,
    _indent: str = "",
) -> str:
    """Render the subtree under ``node`` as an indented text outline.

    Children are shown in the order the search would commit them
    (:meth:`Node.commit_key`: max value, then mean value, visits and the
    lower action), at most ``max_children`` per node, down to
    ``max_depth`` levels; elided siblings are summarized.
    """

    lines: List[str] = []
    max_v = "-inf" if node.visits == 0 else f"{node.max_value:.1f}"
    lines.append(
        f"{_indent}{_action_label(node.action)}: visits={node.visits} "
        f"max={max_v} mean={node.mean_value:.1f} "
        f"untried={len(node.untried)}"
    )
    if max_depth <= 0 or not node.children:
        return "\n".join(lines)
    ranked = sorted(node.children.values(), key=Node.commit_key, reverse=True)
    for child in ranked[:max_children]:
        lines.append(
            render_tree(child, max_depth - 1, max_children, _indent + "  ")
        )
    hidden = len(ranked) - max_children
    if hidden > 0:
        lines.append(f"{_indent}  ... {hidden} more children")
    return "\n".join(lines)


@dataclass(frozen=True)
class TreeStatistics:
    """Structural counters of one search tree."""

    nodes: int
    max_depth: int
    total_visits: int
    fully_expanded: int
    terminals: int


def tree_statistics(root: Node) -> TreeStatistics:
    """Aggregate counters over the subtree rooted at ``root``."""

    nodes = 0
    max_depth = 0
    fully_expanded = 0
    terminals = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        if node.fully_expanded:
            fully_expanded += 1
        if node.terminal:
            terminals += 1
        for child in node.children.values():
            stack.append((child, depth + 1))
    return TreeStatistics(
        nodes=nodes,
        max_depth=max_depth,
        total_visits=root.visits,
        fully_expanded=fully_expanded,
        terminals=terminals,
    )
