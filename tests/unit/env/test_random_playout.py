"""Unit tests for the fused random playout and the step-result cache."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
from repro.dag.generators import (
    chain_dag,
    fork_join_dag,
    independent_tasks_dag,
    random_layered_dag,
)
from repro.env import PROCESS, SchedulingEnv, scheduling_env
from repro.errors import EnvironmentStateError
from repro.metrics import validate_schedule
from repro.utils.rng import bounded_draw


def make_env(graph, until_completion=True, max_ready=5):
    return SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            max_ready=max_ready,
            process_until_completion=until_completion,
        ),
    )


@pytest.fixture
def fork_env():
    return make_env(fork_join_dag(3))


class TestStepResultCache:
    def test_schedule_results_are_singletons(self, fork_env):
        result = fork_env.step(0)
        assert result.scheduled == fork_env.graph.topological_order()[0]
        clone = make_env(fork_join_dag(3))
        # Fresh env, same tid: a distinct table, so a distinct object...
        assert clone.step(0) is not result
        # ...but a clone shares the per-tid singleton table by reference.
        assert fork_env.clone()._sched_results is fork_env._sched_results


class TestRandomPlayout:
    def test_zero_limit_raises_step_limit_error(self, fork_env):
        with pytest.raises(EnvironmentStateError, match="step limit"):
            fork_env.random_playout(np.random.default_rng(0), limit=0)

    def test_step_limit_publishes_the_steps_played(self):
        """A playout stopped at its cap leaves a consistent environment:
        ``steps_taken`` counts the steps it played, the clock, free
        capacity and running entries it kept in locals are written back,
        and ``legal_actions()`` is recomputed for the state it stopped in
        (not served from the cache of the state it started from)."""
        workload = WorkloadConfig(num_tasks=20, max_demand=8, demand_mean=4)
        graph = random_layered_dag(workload, seed=3)
        env = make_env(graph)
        env.legal_actions()  # memoize the pre-playout state
        with pytest.raises(EnvironmentStateError, match="step limit"):
            env.random_playout(np.random.default_rng(0), limit=8)
        # The same eight steps taken one at a time, same draws.
        reference = make_env(graph)
        rng = np.random.default_rng(0)
        for _ in range(8):
            actions = reference.expansion_actions(work_conserving=True)
            choice = int(rng.integers(0, len(actions))) if len(actions) > 1 else 0
            reference.step(actions[choice])
        assert env.start_times() and env.start_times() == reference.start_times()
        assert env.steps_taken == reference.steps_taken == 8
        assert env.now > 0  # a process step moved the clock
        assert env.cluster.signature() == reference.cluster.signature()
        assert env.signature() == reference.signature()
        assert env.legal_actions() == reference.legal_actions()

    def test_finished_episode_returns_makespan_unchanged(self):
        env = make_env(chain_dag([2]))
        env.step(0)
        env.step(PROCESS)
        makespan = env.makespan
        assert env.random_playout(np.random.default_rng(0), limit=10) == makespan
        assert env.steps_taken == 2  # no steps consumed

    def test_playout_completes_and_verifies(self, fork_env):
        makespan = fork_env.random_playout(np.random.default_rng(7), limit=1000)
        assert fork_env.done and makespan == fork_env.makespan
        validate_schedule(
            fork_env.to_schedule(), fork_env.graph, fork_env.config.cluster.capacities
        )

    @pytest.mark.parametrize("buffered", [False, True], ids=["even", "odd"])
    def test_integers_0_1_consumes_no_state(self, buffered):
        """NumPy canary.  ``random_playout`` and ``RandomPolicy`` take a
        single candidate without calling ``integers(0, 1)`` because that
        call returns 0 and leaves the bit generator untouched — in both
        states of its 32-bit buffer.  If a NumPy release ever changes
        that, every seeded MCTS plan moves; this test says why."""
        for seed in range(100):
            rng = np.random.default_rng(seed)
            if buffered:
                rng.integers(0, 5)  # consumes half of a 64-bit output
            before = rng.bit_generator.state
            assert before["has_uint32"] == int(buffered)
            assert rng.integers(0, 1) == 0
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize("until_completion", [True, False])
    def test_single_candidate_moves_draw_nothing(self, until_completion, monkeypatch):
        highs = []

        def recording_draw(rng):
            """The real ``bounded_draw``, bounds recorded."""
            draw = bounded_draw(rng)

            def recorded(n):
                highs.append(n)
                return draw(n)

            return recorded

        monkeypatch.setattr(scheduling_env, "bounded_draw", recording_draw)
        fused_rng = np.random.default_rng(5)
        fused = make_env(fork_join_dag(4), until_completion)
        fused.random_playout(fused_rng, limit=10_000)
        assert highs and min(highs) > 1
        assert len(highs) < fused.steps_taken
        # Same episode as a loop that draws ``integers(0, 1)`` as well.
        reference = make_env(fork_join_dag(4), until_completion)
        rng = np.random.default_rng(5)
        while not reference.done:
            actions = reference.expansion_actions(work_conserving=True)
            reference.step(actions[int(rng.integers(0, len(actions)))])
        assert fused.start_times() == reference.start_times()
        assert fused_rng.bit_generator.state == rng.bit_generator.state

    def test_slot_granularity_playout_matches_generic(self):
        graph = fork_join_dag(4)
        fused = make_env(graph, until_completion=False)
        reference = make_env(graph, until_completion=False)
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        fused.random_playout(rng_a, limit=10_000)
        while not reference.done:
            actions = reference.expansion_actions(work_conserving=True)
            reference.step(actions[int(rng_b.integers(0, len(actions)))])
        assert fused.signature() == reference.signature()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_start_pulls_backlog_task_into_a_one_slot_window(self):
        """With ``max_ready=1`` every start pulls the backlog head into
        the window.  Task 1 fits the capacity task 0 left and starts at
        once; task 2 does not fit what task 1 left and waits for task 0's
        completion.  Every move is forced, so nothing is drawn."""
        graph = independent_tasks_dag([2, 3, 4], demands=[(3, 3), (6, 6), (3, 3)])
        env = make_env(graph, max_ready=1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert env.random_playout(rng, limit=100) == 6
        assert env.start_times() == {0: 0, 1: 0, 2: 2}
        assert env.steps_taken == 6  # three starts, three completions
        assert rng.bit_generator.state == before
