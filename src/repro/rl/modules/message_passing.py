"""Sparse DAG aggregation primitives for graph-structured policies.

A DAG's precedence edges are held as flat ``(parent, child)`` index
arrays (built once per graph from ``graph.children`` in ascending id,
:meth:`EdgeList.from_graph`).  Message passing then reduces to two
sparse sums per round:

* **child aggregation** — node ``i`` receives the sum of its children's
  embeddings: ``out[parent[k]] += h[child[k]]``;
* **parent aggregation** — the transposed direction:
  ``out[child[k]] += h[parent[k]]``.

The two are adjoint (``A_childᵀ = A_parent``), which is exactly what the
backward pass needs: the gradient of a child aggregation is a parent
aggregation of the upstream gradient, and vice versa.

Each sum is defined as the sequential scatter over the edges in list
order, every accumulator starting from ``+0.0`` — floating-point
addition is not associative, and the golden traces pin these bits.  It
is *computed* as an order-preserving rank-sliced gather
(DESIGN.md Sec. 16.2): edge ``k`` has rank ``d`` when it is the
``d``-th edge into its destination, so the rank-``d`` edges have
pairwise distinct destinations and can all be added in one vectorised
pass; running the passes in rank order gives every accumulator the same
addends in the same order as the scatter.  With the accumulator rows
held in order of decreasing in-degree, the destinations of rank ``d``
are a *prefix* of the rows, so a pass is one ``take`` and one add into
a slice — no scatter, no index that depends on the batch size, and the
same code for ``(N, H)`` and ``(B, N, H)`` inputs.  The scatter itself
survives only as the oracle in ``tests/unit/rl/test_modules.py``.

A batch of states of different graphs is one graph: the disjoint union
of their edge lists, each shifted by its state's node offset
(:meth:`EdgeList.disjoint_union`).  Every node keeps its addends in
their order, so the union's sums are the parts' sums bit for bit; the
union is composed from the parts' per-node rows, and only its rank
order is planned again.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["EdgeList"]

#: One direction's sums as per-node rows: ``(degrees, addends)``, node
#: ``i``'s addends being the next ``degrees[i]`` entries of ``addends``
#: in the order they are added.
NodeRows = Tuple[np.ndarray, np.ndarray]

#: One direction's rank passes (see :func:`_rank_plan`).
RankPlan = Tuple[List[np.ndarray], np.ndarray]


def _node_rows(num_nodes: int, put: np.ndarray, take: np.ndarray) -> NodeRows:
    """``out[put[k]] += h[take[k]]`` (in edge order) as per-node rows."""
    degrees = np.bincount(put, minlength=num_nodes)
    # Stable: the edges into one node keep their list order.
    return degrees, take[np.argsort(put, kind="stable")]


def _rank_plan(degrees: np.ndarray, addends: np.ndarray) -> RankPlan:
    """Plan per-node rows as rank passes.

    Returns ``(sources, restore)``: ``sources[d][j]`` is the node whose
    row is the ``d``-th addend of the ``j``-th accumulator row, rows
    being ordered by decreasing in-degree (so ``sources[d]`` covers
    exactly the rows with more than ``d`` addends, a prefix);
    ``restore[i]`` is the accumulator row of node ``i``.
    """
    num_nodes = degrees.shape[0]
    starts = np.cumsum(degrees) - degrees
    order = np.argsort(-degrees, kind="stable")
    restore = np.empty(num_nodes, dtype=np.int64)
    restore[order] = np.arange(num_nodes, dtype=np.int64)
    row_starts = starts[order]
    # above[d]: the rows with more than d addends.
    above = num_nodes - np.cumsum(np.bincount(degrees))
    sources = [
        addends[row_starts[: above[rank]] + rank]
        for rank in range(above.shape[0] - 1)
    ]
    return sources, restore


class EdgeList:
    """Flat precedence edges ``parent[k] -> child[k]`` of one DAG."""

    __slots__ = ("num_nodes", "parent", "child", "_rows", "_children", "_parents")

    def __init__(
        self, num_nodes: int, parent: np.ndarray, child: np.ndarray
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.parent = np.ascontiguousarray(parent, dtype=np.int64)
        self.child = np.ascontiguousarray(child, dtype=np.int64)
        self._plan(
            _node_rows(self.num_nodes, self.parent, self.child),
            _node_rows(self.num_nodes, self.child, self.parent),
        )

    def _plan(self, children: NodeRows, parents: NodeRows) -> None:
        self._rows = (children, parents)
        self._children = _rank_plan(*children)
        self._parents = _rank_plan(*parents)

    @classmethod
    def disjoint_union(cls, parts: Sequence["EdgeList"]) -> "EdgeList":
        """One edge list holding ``parts`` side by side: part ``k``'s
        nodes follow those of the parts before it, and its edges are
        shifted by that many nodes.

        Built from the parts' per-node rows, which are concatenated and
        shifted; no edge is sorted again.
        """
        sizes = np.fromiter(
            (part.num_nodes for part in parts), dtype=np.int64, count=len(parts)
        )
        edge_counts = np.fromiter(
            (part.num_edges for part in parts), dtype=np.int64, count=len(parts)
        )
        # The node offset of every edge's part.
        shift = np.repeat(np.cumsum(sizes) - sizes, edge_counts)
        union = cls.__new__(cls)
        union.num_nodes = int(sizes.sum())
        union.parent = np.concatenate([part.parent for part in parts]) + shift
        union.child = np.concatenate([part.child for part in parts]) + shift
        rows = [
            (
                np.concatenate([part._rows[d][0] for part in parts]),
                np.concatenate([part._rows[d][1] for part in parts]) + shift,
            )
            for d in (0, 1)
        ]
        union._plan(*rows)
        return union

    @classmethod
    def from_graph(cls, graph) -> "EdgeList":
        """Edges of a :class:`~repro.dag.graph.TaskGraph`, node ``i``
        being its ``i``-th smallest task id.

        The list runs parent by parent in ascending id, each parent's
        children ascending, so each node's children — and, the sort
        being by ``(parent, child)``, each node's parents — are summed
        in ascending dense order.
        """
        ids = sorted(graph.task_ids)
        index_of = {tid: i for i, tid in enumerate(ids)}
        pairs = [
            (i, index_of[child])
            for i, tid in enumerate(ids)
            for child in graph.children(tid)
        ]
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(len(ids), edges[:, 0], edges[:, 1])

    @property
    def num_edges(self) -> int:
        return self.parent.shape[0]

    # Directed aggregations ------------------------------------------- #

    def aggregate_children(self, h: np.ndarray) -> np.ndarray:
        """``out[i] = sum_{j in children(i)} h[j]`` (batched or not)."""
        return _aggregate(h, *self._children)

    def aggregate_parents(self, h: np.ndarray) -> np.ndarray:
        """``out[i] = sum_{j in parents(i)} h[j]`` — the adjoint of
        :meth:`aggregate_children`."""
        return _aggregate(h, *self._parents)


def _aggregate(
    h: np.ndarray, sources: List[np.ndarray], restore: np.ndarray
) -> np.ndarray:
    """Run the rank passes of :func:`_rank_plan` over ``h`` of shape
    ``(N, H)`` or ``(B, N, H)``."""
    nodes = h.ndim - 2
    acc = np.zeros(h.shape)
    for source in sources:
        head = acc[..., : len(source), :]
        np.add(head, h.take(source, axis=nodes), out=head)
    return acc.take(restore, axis=nodes)
