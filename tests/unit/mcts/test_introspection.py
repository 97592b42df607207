"""Unit tests for MCTS tree introspection."""

from repro.config import ClusterConfig, EnvConfig, MctsConfig
from repro.env import SchedulingEnv
from repro.mcts import MctsScheduler, Node, render_tree, tree_statistics
from repro.mcts.search import SearchStatistics


def build_small_tree():
    root = Node(untried=[])
    root.update(-10.0)
    root.update(-8.0)
    for action in (0, 1):
        child = Node(parent=root, action=action)
        child.update(-9.0 - action)
        root.children[action] = child
    return root


class TestRenderTree:
    def test_root_line(self):
        out = render_tree(Node(untried=[0, 1]))
        assert out.startswith("root:")
        assert "untried=2" in out

    def test_children_rendered_best_first(self):
        root = build_small_tree()
        out = render_tree(root)
        lines = out.splitlines()
        assert "schedule[0]" in lines[1]  # max -9 beats max -10
        assert "schedule[1]" in lines[2]

    def test_max_value_tie_ranks_like_the_commit(self):
        """On a max-value tie the first child shown is the one the search
        commits: mean value breaks the tie before visit count."""
        root = Node(untried=[])
        for action, values in ((0, [-10.0] * 3), (1, [-10.0] + [-14.0] * 4)):
            child = root.children[action] = Node(parent=root, action=action)
            for value in values:
                child.update(value)
        committed = root.exploitation_child()
        assert committed.action == 0  # mean -10 over 3 beats -13.2 over 5
        lines = render_tree(root).splitlines()
        assert lines[1].strip().startswith("schedule[0]:")
        assert lines[2].strip().startswith("schedule[1]:")

    def test_depth_limit(self):
        root = build_small_tree()
        out = render_tree(root, max_depth=0)
        assert len(out.splitlines()) == 1

    def test_child_elision(self):
        root = Node(untried=[])
        for action in range(3):
            child = Node(parent=root, action=action)
            child.update(-float(action))
            root.children[action] = child
        out = render_tree(root, max_children=2)
        assert "1 more children" in out

    def test_process_label(self):
        root = Node(untried=[])
        child = Node(parent=root, action=-1)
        child.update(-5.0)
        root.children[-1] = child
        assert "process" in render_tree(root)


class TestTreeStatistics:
    def test_counts_small_tree(self):
        root = build_small_tree()
        root.children[1].terminal = True
        stats = tree_statistics(root)
        assert stats.nodes == 3
        assert stats.max_depth == 1
        assert stats.total_visits == 2
        assert stats.fully_expanded == 3  # no untried anywhere
        assert stats.terminals == 1

    def test_on_a_real_search(self, small_random_graph):
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            max_ready=8,
            process_until_completion=True,
        )
        for width in (1, 8):
            scheduler = MctsScheduler(
                MctsConfig(initial_budget=20, min_budget=5, rollout_batch=width),
                env_config,
                seed=0,
            )
            # Spend one budget manually to keep the root.
            env = SchedulingEnv(small_random_graph, env_config)
            root = Node(untried=scheduler._candidates(env))
            scheduler._run_budget(root, env, 100.0, SearchStatistics(), 20)
            stats = tree_statistics(root)
            assert stats.nodes > 1
            assert stats.total_visits == 20
            assert stats.max_depth >= 1
            rendered = render_tree(root, max_depth=2)
            assert "root: visits=20" in rendered
