"""Unit tests for the differentiable module stack (repro.rl.modules)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import WorkloadConfig
from repro.dag.examples import motivating_example
from repro.dag.generators import (
    chain_dag,
    independent_tasks_dag,
    random_layered_dag,
)
from repro.dag.mapreduce import mapreduce_dag
from repro.errors import ConfigError
from repro.rl.modules import (
    EdgeList,
    Linear,
    MLPStack,
    ReLU,
    entropy_dlogits,
    init_linear,
    masked_softmax,
    policy_entropy,
)


def scatter_sum(h, take, put, num_nodes):
    """``out[put[k]] += h[take[k]]`` edge by edge, from ``+0.0``.

    This unbuffered ``np.add.at`` scatter *defines* both aggregations of
    :class:`EdgeList` (it is what they were until the rank-sliced gather
    replaced it); the tests below compare against it by bytes.
    """
    if h.ndim == 3:
        out = np.zeros((h.shape[0], num_nodes, h.shape[2]))
        np.add.at(out, (slice(None), put), h[:, take])
    else:
        out = np.zeros((num_nodes, h.shape[1]))
        np.add.at(out, put, h[take])
    return out


def assert_matches_scatter(edges, h):
    """Both directions of ``edges`` equal the scatter bit for bit."""
    for got, take, put in (
        (edges.aggregate_children(h), edges.child, edges.parent),
        (edges.aggregate_parents(h), edges.parent, edges.child),
    ):
        want = scatter_sum(h, take, put, edges.num_nodes)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestLinear:
    def test_forward_matches_affine(self, rng):
        params = {}
        init_linear(params, "W", "b", 4, 3, rng)
        layer = Linear(params, "W", "b")
        x = rng.normal(size=(5, 4))
        assert np.allclose(layer.forward(x), x @ params["W"] + params["b"])

    def test_backward_gradients(self, rng):
        params = {}
        init_linear(params, "W", "b", 4, 3, rng)
        layer = Linear(params, "W", "b")
        x = rng.normal(size=(5, 4))
        dout = rng.normal(size=(5, 3))
        layer.forward(x, keep_cache=True)
        grads = {}
        dx = layer.backward(dout, grads)
        assert np.allclose(grads["W"], x.T @ dout)
        assert np.allclose(grads["b"], dout.sum(axis=0))
        assert np.allclose(dx, dout @ params["W"].T)

    def test_backward_without_cache_raises(self, rng):
        params = {}
        init_linear(params, "W", "b", 2, 2, rng)
        layer = Linear(params, "W", "b")
        with pytest.raises(ConfigError, match="no cached forward"):
            layer.backward(np.zeros((1, 2)), {})

    def test_sees_in_place_parameter_updates(self, rng):
        # The optimizer mutates arrays in the shared dict; the layer must
        # read the dict at call time, not hold stale references.
        params = {}
        init_linear(params, "W", "b", 2, 2, rng)
        layer = Linear(params, "W", "b")
        x = np.ones((1, 2))
        before = layer.forward(x).copy()
        params["W"] += 1.0
        after = layer.forward(x)
        assert not np.allclose(before, after)


class TestReLU:
    def test_forward_clamps(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.array_equal(ReLU().forward(x), [[0.0, 0.0, 2.0]])

    def test_backward_gates_gradient(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.5, 2.0]])
        relu.forward(x, keep_cache=True)
        dx = relu.backward(np.ones((1, 3)), {})
        assert np.array_equal(dx, [[0.0, 1.0, 1.0]])


class TestMaskedSoftmax:
    def test_rows_sum_to_one_and_masked_entries_are_zero(self, rng):
        logits = rng.normal(size=(6, 5))
        masks = rng.random(size=(6, 5)) > 0.4
        masks[:, 0] = True  # every row keeps one legal action
        probs = masked_softmax(logits, masks)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs[~masks] == 0.0)

    def test_all_legal_matches_plain_softmax(self, rng):
        logits = rng.normal(size=(3, 4))
        probs = masked_softmax(logits, np.ones((3, 4), dtype=bool))
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.allclose(probs, exp / exp.sum(axis=1, keepdims=True))

    def test_no_legal_action_raises(self):
        with pytest.raises(ConfigError, match="no legal action"):
            masked_softmax(np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigError, match="mask shape"):
            masked_softmax(np.zeros((2, 3)), np.ones((2, 4), dtype=bool))


class TestEntropy:
    def test_uniform_entropy(self):
        probs = np.full((1, 4), 0.25)
        assert policy_entropy(probs) == pytest.approx(np.log(4))

    def test_entropy_dlogits_matches_finite_differences(self, rng):
        logits = rng.normal(size=(3, 5))
        masks = np.ones((3, 5), dtype=bool)
        masks[0, 2:] = False
        grad = entropy_dlogits(masked_softmax(logits, masks))
        eps = 1e-6
        for b, a in [(0, 0), (0, 3), (1, 2), (2, 4)]:
            bumped = logits.copy()
            bumped[b, a] += eps
            up = policy_entropy(masked_softmax(bumped, masks))
            bumped[b, a] -= 2 * eps
            down = policy_entropy(masked_softmax(bumped, masks))
            fd = (up - down) / (2 * eps)
            assert grad[b, a] == pytest.approx(fd, abs=1e-6)

    def test_masked_entries_get_zero_gradient(self, rng):
        logits = rng.normal(size=(2, 4))
        masks = np.array([[True, True, False, False], [True] * 4])
        grad = entropy_dlogits(masked_softmax(logits, masks))
        assert np.all(grad[~masks] == 0.0)


class TestMLPStack:
    def test_forward_matches_manual_loop(self, rng):
        stack = MLPStack([4, 8, 3], rng=rng)
        x = rng.normal(size=(5, 4))
        h = np.maximum(x @ stack.params["W0"] + stack.params["b0"], 0.0)
        expected = h @ stack.params["W1"] + stack.params["b1"]
        assert np.allclose(stack.forward(x), expected)

    def test_backward_matches_finite_differences(self, rng):
        stack = MLPStack([3, 6, 2], rng=rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss():
            return 0.5 * float(np.sum((stack.forward(x) - target) ** 2))

        out = stack.forward(x, keep_cache=True)
        grads = stack.backward(out - target)
        eps = 1e-6
        for key in ["W0", "b0", "W1", "b1"]:
            flat = stack.params[key].ravel()
            index = int(rng.integers(0, flat.size))
            flat[index] += eps
            up = loss()
            flat[index] -= 2 * eps
            down = loss()
            flat[index] += eps
            fd = (up - down) / (2 * eps)
            assert grads[key].ravel()[index] == pytest.approx(fd, rel=1e-4)

    def test_need_dx_returns_input_gradient(self, rng):
        stack = MLPStack([3, 4, 2], rng=rng)
        x = rng.normal(size=(2, 3))
        stack.forward(x, keep_cache=True)
        grads = {}
        dx = stack.backward(np.ones((2, 2)), grads=grads, need_dx=True)
        assert dx.shape == x.shape
        assert set(grads) == {"W0", "b0", "W1", "b1"}

    def test_backward_without_forward_raises(self, rng):
        stack = MLPStack([2, 2], rng=rng)
        with pytest.raises(ConfigError, match="no cached forward"):
            stack.backward(np.zeros((1, 2)))

    def test_cache_is_consumed(self, rng):
        stack = MLPStack([2, 2], rng=rng)
        stack.forward(np.zeros((1, 2)), keep_cache=True)
        assert stack.has_cache
        stack.backward(np.zeros((1, 2)))
        assert not stack.has_cache

    def test_prefix_shares_one_param_dict(self, rng):
        params = {}
        a = MLPStack([3, 2], rng=rng, params=params, prefix="a.")
        b = MLPStack([3, 2], rng=rng, params=params, prefix="b.")
        assert set(params) == {"a.W0", "a.b0", "b.W0", "b.b0"}
        assert a.params is b.params

    def test_rebuild_from_existing_params_needs_no_rng(self, rng):
        params = MLPStack([3, 4, 2], rng=rng).params
        rebuilt = MLPStack([3, 4, 2], params=dict(params))
        x = rng.normal(size=(2, 3))
        assert np.array_equal(
            rebuilt.forward(x), MLPStack([3, 4, 2], params=params).forward(x)
        )

    @pytest.mark.parametrize("sizes", [[4], [3, 0, 2]])
    def test_invalid_sizes_raise(self, sizes, rng):
        with pytest.raises(ConfigError):
            MLPStack(sizes, rng=rng)

    def test_missing_params_without_rng_raise(self):
        with pytest.raises(ConfigError, match="no rng"):
            MLPStack([2, 2])


class TestEdgeList:
    def _diamond(self):
        # 0 -> {1, 2} -> 3
        parent = np.array([0, 0, 1, 2])
        child = np.array([1, 2, 3, 3])
        return EdgeList(4, parent, child)

    def test_aggregate_children(self):
        edges = self._diamond()
        h = np.arange(8, dtype=np.float64).reshape(4, 2)
        out = edges.aggregate_children(h)
        assert np.array_equal(out[0], h[1] + h[2])
        assert np.array_equal(out[1], h[3])
        assert np.array_equal(out[3], [0.0, 0.0])

    def test_aggregate_parents(self):
        edges = self._diamond()
        h = np.arange(8, dtype=np.float64).reshape(4, 2)
        out = edges.aggregate_parents(h)
        assert np.array_equal(out[3], h[1] + h[2])
        assert np.array_equal(out[0], [0.0, 0.0])

    def test_directions_are_adjoint(self, rng):
        # <u, A_child h> == <A_parent u, h> — exactly the identity the
        # backward pass relies on.
        edges = self._diamond()
        h = rng.normal(size=(4, 3))
        u = rng.normal(size=(4, 3))
        lhs = float(np.sum(u * edges.aggregate_children(h)))
        rhs = float(np.sum(edges.aggregate_parents(u) * h))
        assert lhs == pytest.approx(rhs)

    def test_batched_matches_loop(self, rng):
        edges = self._diamond()
        h = rng.normal(size=(3, 4, 2))
        batched = edges.aggregate_children(h)
        for b in range(3):
            assert np.allclose(batched[b], edges.aggregate_children(h[b]))

    @pytest.mark.parametrize(
        "graph",
        [motivating_example()]
        + [
            random_layered_dag(
                WorkloadConfig(num_tasks=30, max_runtime=8, max_demand=8),
                seed=seed,
            )
            for seed in (0, 1, 7)
        ]
        # No edge at all: one task, and three.
        + [independent_tasks_dag([3]), independent_tasks_dag([1, 2, 3])],
        ids=["motivating", "layered0", "layered1", "layered7", "single", "edgeless"],
    )
    def test_from_graph(self, graph):
        # Node i is the i-th smallest id; the list runs parent by parent
        # in ascending id, each parent's children ascending, so both
        # directions sum their addends in ascending id.
        edges = EdgeList.from_graph(graph)
        ids = sorted(graph.task_ids)
        assert edges.num_nodes == graph.num_tasks
        assert edges.num_edges == graph.num_edges
        for i, tid in enumerate(ids):
            children = [ids[c] for c in edges.child[edges.parent == i]]
            parents = [ids[p] for p in edges.parent[edges.child == i]]
            assert children == sorted(graph.children(tid))
            assert parents == sorted(graph.parents(tid))
        assert np.all(np.diff(edges.parent) >= 0)


class TestSegmentSum:
    def test_scatter_accumulates_duplicates(self):
        # Nodes 0 and 1 both feed node 1; node 2 feeds node 0.
        edges = EdgeList(3, parent=np.array([1, 1, 0]), child=np.array([0, 1, 2]))
        h = np.array([[1.0], [2.0], [4.0]])
        out = edges.aggregate_children(h)
        assert np.array_equal(out, [[4.0], [3.0], [0.0]])
        assert_matches_scatter(edges, h)

    def test_batch_variant(self):
        edges = EdgeList(2, parent=np.array([1, 1]), child=np.array([0, 1]))
        h = np.array([[[1.0], [2.0]], [[3.0], [5.0]]])
        out = edges.aggregate_children(h)
        assert np.array_equal(out, [[[0.0], [3.0]], [[0.0], [8.0]]])
        assert_matches_scatter(edges, h)


def _awkward_values(rng, shape):
    """Mixed magnitudes (1e-8..1e8), 30 % exact zeros, 10 % ``-0.0``: the
    inputs on which a re-ordered or re-associated sum shows."""
    values = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    kind = rng.random(size=shape)
    values[kind < 0.3] = 0.0
    values[kind < 0.1] = -0.0
    return values


@st.composite
def _dags(draw):
    kind = draw(st.sampled_from(["layered", "mapreduce", "chain", "edgeless"]))
    if kind == "layered":
        return random_layered_dag(
            WorkloadConfig(num_tasks=draw(st.integers(2, 40))),
            seed=draw(st.integers(0, 2**16)),
        )
    if kind == "mapreduce":
        return mapreduce_dag(
            [1] * draw(st.integers(1, 12)),
            [1] * draw(st.integers(1, 6)),
            shuffle=draw(st.sampled_from(["full", "striped"])),
        )
    if kind == "chain":
        return chain_dag([1] * draw(st.integers(1, 6)))
    # No edge at all, down to a single node.
    return independent_tasks_dag([1] * draw(st.integers(1, 5)))


class TestAggregationIsTheScatter:
    """The rank-sliced gather adds the same addends to the same
    accumulators in the same order as ``np.add.at`` — bytes, not
    tolerance.  Every example runs 2-D, ``B = 1`` and ``B > 1`` inputs
    through one :class:`EdgeList`, so nothing a call might keep for the
    next one (an index sized for another batch) can go unnoticed.  The
    disjoint union of shifted edge lists (a step batch's graph) is held
    to the same scatter, and to each part's own sums."""

    @settings(max_examples=60, deadline=None)
    @given(
        graph=_dags(),
        batch=st.integers(2, 9),
        width=st.sampled_from([1, 7, 16, 33]),
        seed=st.integers(0, 2**16),
    )
    def test_dag_aggregations(self, graph, batch, width, seed):
        edges = EdgeList.from_graph(graph)
        n = edges.num_nodes
        rng = np.random.default_rng(seed)
        for shape in ((batch, n, width), (n, width), (1, n, width)):
            assert_matches_scatter(edges, _awkward_values(rng, shape))

    @settings(max_examples=60, deadline=None)
    @given(
        num_nodes=st.integers(1, 12),
        num_edges=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    def test_any_edge_list_in_list_order(self, num_nodes, num_edges, seed):
        # Not a DAG's CSR order: unsorted, with parallel edges and
        # self-loops.  The sum over one node's edges still runs in list
        # order.
        rng = np.random.default_rng(seed)
        edges = EdgeList(
            num_nodes,
            rng.integers(0, num_nodes, size=num_edges),
            rng.integers(0, num_nodes, size=num_edges),
        )
        for shape in ((num_nodes, 3), (4, num_nodes, 3), (1, num_nodes, 3)):
            assert_matches_scatter(edges, _awkward_values(rng, shape))

    @settings(max_examples=60, deadline=None)
    @given(
        graphs=st.lists(_dags(), min_size=1, max_size=5),
        random_parts=st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 20)), max_size=2
        ),
        width=st.sampled_from([1, 7, 16, 33]),
        seed=st.integers(0, 2**16),
    )
    def test_unions_of_shifted_edge_lists(
        self, graphs, random_parts, width, seed
    ):
        # A step batch's graph: the disjoint union of its states' edge
        # lists, here DAGs mixed with unsorted lists with parallel edges.
        rng = np.random.default_rng(seed)
        parts = [EdgeList.from_graph(g) for g in graphs]
        parts += [
            EdgeList(n, rng.integers(0, n, size=e), rng.integers(0, n, size=e))
            for n, e in random_parts
        ]
        parts = [parts[i] for i in rng.permutation(len(parts))]
        union = EdgeList.disjoint_union(parts)
        offsets = np.cumsum([0] + [part.num_nodes for part in parts])
        assert union.num_nodes == offsets[-1]
        for name in ("parent", "child"):
            assert np.array_equal(
                getattr(union, name),
                np.concatenate(
                    [getattr(p, name) + o for p, o in zip(parts, offsets)]
                ),
            )
        n = union.num_nodes
        for shape in ((n, width), (3, n, width), (1, n, width)):
            assert_matches_scatter(union, _awkward_values(rng, shape))
        # Each part's rows are that part's own sums, bit for bit.
        h = _awkward_values(rng, (n, width))
        for part, lo, hi in zip(parts, offsets, offsets[1:]):
            for direction in ("aggregate_children", "aggregate_parents"):
                got = getattr(union, direction)(h)[lo:hi]
                want = getattr(part, direction)(h[lo:hi])
                assert got.tobytes() == want.tobytes()

    def test_order_of_addends_is_observable(self):
        # 1e16 + 1 + 1 - 1e16 depends on the order; the CSR order (and
        # np.add.at's) is ascending dense index.
        graph = mapreduce_dag([1, 1, 1, 1], [1])
        edges = EdgeList.from_graph(graph)
        h = np.array([[1e16], [1.0], [1.0], [-1e16], [0.0]])
        assert edges.aggregate_parents(h)[4, 0] == ((1e16 + 1.0) + 1.0) - 1e16
        assert_matches_scatter(edges, h)
        assert_matches_scatter(edges, h[::-1].copy())

    def test_negative_zero_addend_sums_to_positive_zero(self):
        # Accumulators start from +0.0 (as np.zeros does), so a lone
        # -0.0 child gives +0.0, not a copy of the child.
        edges = EdgeList(2, parent=np.array([0]), child=np.array([1]))
        out = edges.aggregate_children(np.array([[1.0], [-0.0]]))
        assert not np.signbit(out[0, 0])
        assert_matches_scatter(edges, np.array([[1.0], [-0.0]]))

    def test_non_finite_activation_stays_in_its_neighbourhood(self):
        # 0 -> {1, 2} -> 3 plus an isolated node 4.
        edges = EdgeList(5, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3]))
        h = np.ones((2, 5, 2))
        h[0, 1, 0] = np.inf
        h[1, 2, 1] = np.nan
        out = edges.aggregate_children(h)
        assert np.isfinite(out).sum() == out.size - 2
        assert out[0, 0, 0] == np.inf and np.isnan(out[1, 0, 1])
        assert np.array_equal(out[:, 4], np.zeros((2, 2)))
        assert_matches_scatter(edges, h)

    def test_non_contiguous_input(self, rng):
        graph = random_layered_dag(WorkloadConfig(num_tasks=15), seed=4)
        edges = EdgeList.from_graph(graph)
        h = rng.normal(size=(6, 15, 8))[::2, :, ::2]
        assert not h.flags["C_CONTIGUOUS"]
        assert_matches_scatter(edges, h)
