"""Unit tests for budget decay (Eq. 4) and tree nodes (Eq. 5)."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ConfigError
from repro.mcts import Node, budget_at_depth, tree_statistics


class TestBudgetDecay:
    def test_root_gets_full_budget(self):
        assert budget_at_depth(1000, 100, 1) == 1000

    def test_inverse_proportionality(self):
        assert budget_at_depth(1000, 100, 2) == 500
        assert budget_at_depth(1000, 100, 5) == 200

    def test_floor_applies(self):
        assert budget_at_depth(1000, 100, 50) == 100

    def test_exact_floor_boundary(self):
        assert budget_at_depth(1000, 100, 10) == 100

    def test_invalid_depth(self):
        with pytest.raises(ConfigError):
            budget_at_depth(1000, 100, 0)

    def test_invalid_budgets(self):
        with pytest.raises(ConfigError):
            budget_at_depth(0, 1, 1)
        with pytest.raises(ConfigError):
            budget_at_depth(10, 0, 1)


class TestNode:
    def test_initial_statistics(self):
        node = Node(untried=[0, 1])
        assert node.visits == 0
        assert node.max_value == -math.inf
        assert node.mean_value == 0.0
        assert not node.fully_expanded
        assert not node.terminal

    def test_update_tracks_max_and_mean(self):
        node = Node()
        node.update(-10.0)
        node.update(-4.0)
        node.update(-7.0)
        assert node.visits == 3
        assert node.max_value == -4.0
        assert node.mean_value == pytest.approx(-7.0)

    def test_unvisited_child_scores_infinity(self):
        parent = Node(untried=[])
        child = Node(parent=parent, action=0)
        parent.children[0] = child
        parent.visits = 1
        assert parent.ucb_score(child, c=1.0) == math.inf

    def test_ucb_matches_eq5(self):
        parent = Node()
        parent.visits = 10
        child = Node(parent=parent, action=0)
        child.visits = 4
        child.max_value = -50.0
        child.sum_value = -240.0
        c = 30.0
        expected = -50.0 + c * math.sqrt(math.log(10) / 4)
        assert parent.ucb_score(child, c) == pytest.approx(expected)

    def test_classic_ucb_uses_mean(self):
        parent = Node()
        parent.visits = 10
        child = Node(parent=parent, action=0)
        child.visits = 4
        child.max_value = -50.0
        child.sum_value = -240.0
        expected = -60.0 + 30.0 * math.sqrt(math.log(10) / 4)
        assert parent.ucb_score(child, 30.0, use_max=False) == pytest.approx(expected)

    def test_best_child_prefers_max_value(self):
        parent = Node()
        parent.visits = 20
        for action, (max_v, visits) in enumerate([(-50.0, 10), (-40.0, 10)]):
            child = Node(parent=parent, action=action)
            child.visits = visits
            child.max_value = max_v
            child.sum_value = max_v * visits
            parent.children[action] = child
        assert parent.best_child(c=0.001).action == 1

    def test_best_child_tiebreaks_on_mean(self):
        parent = Node()
        parent.visits = 20
        specs = [(-40.0, -45.0), (-40.0, -42.0)]  # same max, better mean
        for action, (max_v, mean_v) in enumerate(specs):
            child = Node(parent=parent, action=action)
            child.visits = 10
            child.max_value = max_v
            child.sum_value = mean_v * 10
            parent.children[action] = child
        assert parent.exploitation_child().action == 1

    def test_best_child_without_children_raises(self):
        with pytest.raises(ValueError):
            Node().best_child(1.0)

    def test_depth(self):
        root = Node()
        child = root.children[0] = Node(parent=root, action=0)
        child.children[1] = Node(parent=child, action=1)
        assert tree_statistics(child.children[1]).max_depth == 0
        assert tree_statistics(root).max_depth == 2

    def test_tree_size(self):
        root = Node()
        for action in (0, 1):
            root.children[action] = Node(parent=root, action=action)
        assert tree_statistics(root).nodes == 3

    def test_repr(self):
        assert "visits=0" in repr(Node())


# Few distinct values per field, so exact ties in score, mean and visit
# count are the common case rather than a float accident.
child_statistics = st.tuples(
    st.integers(0, 3),  # visits
    st.sampled_from([-50.0, -40.0, -30.0]),  # max value
    st.sampled_from([-60.0, -50.0, -45.0]),  # mean value
)


@settings(max_examples=300, deadline=None)
@given(
    children=st.lists(child_statistics, min_size=1, max_size=6),
    # log(n) = 0 at n <= 1 levels the exploration term, so the visit-count
    # tie-break is reached: draw those half the time.
    parent_visits=st.one_of(st.integers(0, 1), st.integers(2, 40)),
    c=st.sampled_from([0.001, 1.0, 30.0]),
    use_max=st.booleans(),
    data=st.data(),
)
def test_best_child_is_the_eq5_argmax(children, parent_visits, c, use_max, data):
    """The hand-rolled argmax equals ``max`` over Eq. (5) with the
    documented tie-break; with no virtual loss pending, asking for
    virtual-loss scoring picks the same child — which is what makes a
    width-1 wave the sequential search."""
    actions = data.draw(st.permutations(range(-1, len(children) - 1)))
    parent = Node()
    parent.visits = parent_visits
    for action, (visits, max_value, mean_value) in zip(actions, children):
        child = Node(parent=parent, action=action)
        child.visits = visits
        if visits:
            child.max_value = max_value
            child.sum_value = mean_value * visits
        parent.children[action] = child

    expected = max(
        parent.children.values(),
        key=lambda ch: (
            parent.ucb_score(ch, c, use_max),
            ch.mean_value,
            ch.visits,
            -ch.action,
        ),
    )
    assert parent.best_child(c, use_max) is expected
    assert parent.best_child(c, use_max, virtual_loss=True) is expected
