"""White-box tests of MCTS search mechanics."""

import pytest

from repro.config import (
    ClusterConfig,
    EnvConfig,
    GrapheneConfig,
    MctsConfig,
    WorkloadConfig,
)
from repro.dag import independent_tasks_dag, random_layered_dag
from repro.env import PROCESS, SchedulingEnv
from repro.mcts import MctsScheduler, Node, tree_statistics
from repro.mcts.search import SearchStatistics
from repro.schedulers.base import ScheduleRequest


@pytest.fixture
def env_config():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=8),
        max_ready=6,
        process_until_completion=True,
    )


def environment_state(env):
    return (
        env.signature(),
        list(env.legal_actions()),
        env.steps_taken,
        env._version,
    )


class TestIterationMechanics:
    """The one tree walk, driven a budget at a time: ``_run_budget`` on a
    statistics-only root and the search's environment, which a descent
    clones and replays its path on.  Width 1 is the sequential search;
    the subclass below re-runs every test on waves of 8."""

    width = 1

    def search(self, graph, env_config):
        scheduler = MctsScheduler(
            MctsConfig(initial_budget=10, min_budget=5, rollout_batch=self.width),
            env_config,
            seed=0,
        )
        env = SchedulingEnv(graph, env_config)
        root = Node(untried=scheduler._candidates(env))
        return scheduler, env, root, SearchStatistics()

    def test_iterations_add_one_node_or_hit_terminal(self, env_config):
        graph = independent_tasks_dag([2, 2, 2], demands=[(4, 4)] * 3)
        scheduler, env, root, stats = self.search(graph, env_config)
        sizes = [tree_statistics(root).nodes]
        for _ in range(8):
            scheduler._run_budget(root, env, 100.0, stats, self.width)
            sizes.append(tree_statistics(root).nodes)
        # Tree grows by at most one node per budget unit.
        for before, after in zip(sizes, sizes[1:]):
            assert 0 <= after - before <= self.width
        assert root.visits == stats.iterations == 8 * self.width

    def test_backpropagation_reaches_root(self, env_config):
        graph = independent_tasks_dag([2, 2], demands=[(4, 4)] * 2)
        scheduler, env, root, stats = self.search(graph, env_config)
        scheduler._run_budget(root, env, 100.0, stats, 1)
        assert root.visits == 1
        assert root.max_value <= 0  # value is a negative makespan

    def test_root_visits_equal_child_visit_sum(self, env_config):
        graph = independent_tasks_dag([2, 2, 2], demands=[(4, 4)] * 3)
        scheduler, env, root, stats = self.search(graph, env_config)
        scheduler._run_budget(root, env, 100.0, stats, 12)
        child_visits = sum(ch.visits for ch in root.children.values())
        # Every iteration passes through exactly one child (no terminals at
        # the root of this instance).
        assert child_visits == root.visits == 12

    def test_values_are_negative_makespans(self, env_config):
        graph = independent_tasks_dag([3, 3], demands=[(4, 4)] * 2)
        scheduler, env, root, stats = self.search(graph, env_config)
        scheduler._run_budget(root, env, 100.0, stats, 10)
        # Both tasks fit together: the only achievable makespan is 3.
        assert root.max_value == -3.0

    def test_budget_leaves_the_search_environment_untouched(self, env_config):
        """A budget only reads and clones the search's environment: its
        state, legal actions, step count and state version are those of
        the root — also once the tree is exhausted and descents end in
        re-selected terminal nodes."""
        graph = independent_tasks_dag([2, 2], demands=[(4, 4)] * 2)
        scheduler, env, _, stats = self.search(graph, env_config)
        env.step(scheduler._candidates(env)[0])  # a root below the initial state
        root = Node(untried=scheduler._candidates(env))
        at_root = environment_state(env)
        reselected_terminal = False
        for _ in range(12):
            before = tree_statistics(root)
            scheduler._run_budget(root, env, 100.0, stats, self.width)
            assert environment_state(env) == at_root
            after = tree_statistics(root)
            if after.terminals and after.nodes == before.nodes:
                reselected_terminal = True
        assert reselected_terminal, "the budget must outlast this tiny tree"
        assert root.visits == stats.iterations == 12 * self.width

    def test_reselected_terminal_costs_no_clone_and_no_step(
        self, env_config, monkeypatch
    ):
        """Once a one-task tree is exhausted (schedule, then process to
        the end), every budget unit re-selects its terminal leaf and
        backpropagates the value its first evaluation recorded, without
        copying or stepping an environment."""
        graph = independent_tasks_dag([2], demands=[(4, 4)])
        scheduler, env, root, stats = self.search(graph, env_config)
        scheduler._run_budget(root, env, 100.0, stats, 2)
        terminal = root.children[0].children[PROCESS]
        assert terminal.terminal and terminal.visits == 1
        calls = []
        for name in ("clone", "step"):
            inner = getattr(SchedulingEnv, name)

            def counting(self, *args, _inner=inner, _name=name):
                calls.append(_name)
                return _inner(self, *args)

            monkeypatch.setattr(SchedulingEnv, name, counting)
        scheduler._run_budget(root, env, 100.0, stats, 3 * self.width)
        assert calls == []
        assert terminal.visits == 1 + 3 * self.width
        assert root.visits == stats.iterations == 2 + 3 * self.width
        assert terminal.max_value == terminal.mean_value == -2.0


class TestIterationMechanicsInWaves(TestIterationMechanics):
    width = 8


class TestBackpropagation:
    def test_folds_like_update_and_releases_virtual_loss(self, env_config):
        """The inlined fold equals ``Node.update`` on every ancestor;
        pending virtual losses drop by one, never below zero."""
        scheduler = MctsScheduler(MctsConfig(), env_config, seed=0)

        def chain():
            root = Node()
            child = root.children[0] = Node(parent=root, action=0)
            leaf = child.children[1] = Node(parent=child, action=1)
            return [root, child, leaf]

        walked, reference = chain(), chain()
        for node, pending in zip(walked, (0, 2, 1)):
            node.vloss = pending
        stats = SearchStatistics()
        for value in (-9.0, -4.0, -6.0):
            scheduler._backpropagate(walked[-1], value, stats)
            for node in reference:
                node.update(value)
        for node, twin in zip(walked, reference):
            assert (node.visits, node.sum_value, node.max_value) == (
                twin.visits,
                twin.sum_value,
                twin.max_value,
            )
        assert [node.vloss for node in walked] == [0, 0, 0]
        assert stats.max_tree_depth == 3


class TestVirtualLossBookkeeping:
    """Every virtual loss a round places is repaid, and every collected
    leaf costs exactly one budget unit — sequentially and in waves."""

    WORKLOAD = WorkloadConfig(
        num_tasks=20, max_runtime=6, max_demand=8, runtime_mean=3, demand_mean=4
    )

    @staticmethod
    def scheduler(env_config, width, budget):
        return MctsScheduler(
            MctsConfig(
                initial_budget=budget,
                min_budget=budget,
                use_budget_decay=False,
                rollout_batch=width,
            ),
            env_config,
            seed=0,
        )

    def test_vloss_returns_to_zero_after_budget(self, env_config):
        graph = random_layered_dag(self.WORKLOAD, seed=8)
        for width in (1, 8):
            scheduler = self.scheduler(env_config, width, 48)
            env = SchedulingEnv(graph, env_config)
            root = Node(untried=scheduler._candidates(env))
            stats = SearchStatistics()
            scheduler._run_budget(root, env, 1.4, stats, 48)

            assert stats.iterations == 48
            stack = [root]
            visited = 0
            while stack:
                node = stack.pop()
                visited += 1
                assert node.vloss == 0, "virtual loss must be repaid by backprop"
                stack.extend(node.children.values())
            assert visited > 1, "the budget must have grown the tree"

    def test_batched_and_sequential_search_visit_counts_agree(self, env_config):
        """Total iterations equal the spent budget in both modes."""
        graph = random_layered_dag(self.WORKLOAD, seed=9)
        for width in (1, 8):
            scheduler = self.scheduler(env_config, width, 32)
            scheduler.plan(ScheduleRequest(graph))
            stats = scheduler.last_statistics
            assert stats is not None
            assert stats.iterations == sum(stats.budgets)


class TestSubtreeReuse:
    def test_statistics_survive_decision_commit(self, env_config):
        """After committing an action the chosen child becomes the root
        with its accumulated statistics intact (Sec. III-C: 'the selected
        action will point to a child node which will become the new root
        node')."""
        graph = independent_tasks_dag([2, 2, 2, 2], demands=[(4, 4)] * 4)
        scheduler = MctsScheduler(
            MctsConfig(initial_budget=30, min_budget=10), env_config, seed=0
        )
        schedule = scheduler.plan(ScheduleRequest(graph))
        stats = scheduler.last_statistics
        assert stats.decisions >= 4  # at least one per task + processing
        # Budget decays by depth while the subtree carries prior visits;
        # iterations therefore exceed pure per-decision expansion needs.
        assert stats.iterations == sum(stats.budgets)


class TestGrapheneBackwardHorizonGrowth:
    def test_tight_horizon_factor_still_packs(self):
        """With a horizon factor of 1.0 the initial backward deadline is
        the lower bound itself, which serialized troublesome tasks cannot
        meet — the planner must grow the horizon instead of failing."""
        from repro.schedulers import GrapheneScheduler

        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8), max_ready=8
        )
        scheduler = GrapheneScheduler(
            GrapheneConfig(thresholds=(0.5,), space_time_horizon_factor=1.0),
            env_config,
        )
        # Five mutually-exclusive troublesome tasks: serial length 10,
        # work-based lower bound only 6.
        graph = independent_tasks_dag([2] * 5, demands=[(6, 6)] * 5)
        plan = scheduler.build_plan(graph, 0.5, "backward")
        assert sorted(plan.order) == list(graph.task_ids)
        assert plan.virtual_makespan >= 10
        schedule = scheduler.plan(ScheduleRequest(graph))
        assert schedule.makespan == 10
