"""Unit tests for the scheduling MDP."""

import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag import Task, TaskGraph, chain_dag, independent_tasks_dag
from repro.env import PROCESS, SchedulingEnv
from repro.errors import CapacityError, EnvironmentStateError, ScheduleError
from repro.metrics import validate_schedule


def small_env(graph, max_ready=5, until_completion=False, capacities=(10, 10)):
    return SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=capacities, horizon=8),
            max_ready=max_ready,
            process_until_completion=until_completion,
        ),
    )


class TestConstruction:
    def test_initial_ready_set_is_sources(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        assert env.visible_ready() == [0]
        assert not env.done
        assert env.now == 0

    def test_oversized_task_rejected_up_front(self):
        graph = TaskGraph([Task(0, 1, (99, 1))])
        with pytest.raises(CapacityError):
            small_env(graph)

    def test_dimension_mismatch_rejected(self):
        graph = TaskGraph([Task(0, 1, (1,))])
        with pytest.raises(EnvironmentStateError):
            small_env(graph)


class TestScheduleAction:
    def test_occupies_and_records(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        result = env.step(0)
        assert result.scheduled == 0
        assert result.reward == 0
        assert env.running_ids() == [0]
        assert env.visible_ready() == []
        assert env.start_times() == {0: 0}

    def test_time_does_not_move(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        env.step(0)
        assert env.now == 0

    def test_out_of_range_index_rejected(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        with pytest.raises(EnvironmentStateError):
            env.step(3)

    def test_does_not_fit_rejected(self):
        graph = independent_tasks_dag([1, 1], demands=[(8, 8), (8, 8)])
        env = small_env(graph)
        env.step(0)
        with pytest.raises(CapacityError):
            env.step(0)  # second task no longer fits


class TestProcessAction:
    def test_single_slot_reward(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        env.step(0)
        result = env.step(PROCESS)
        assert result.reward == -1
        assert env.now == 1

    def test_until_completion_jumps(self, chain3):
        env = small_env(chain3, until_completion=True)
        env.step(0)  # task 0 has runtime 2
        result = env.step(PROCESS)
        assert env.now == 2
        assert result.reward == -2
        assert result.completed == (0,)

    def test_completion_unlocks_children(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        env.step(0)
        env.step(PROCESS)
        assert env.visible_ready() == []
        env.step(PROCESS)  # task 0 (runtime 2) finishes
        assert env.visible_ready() == [1]

    def test_process_idle_cluster_rejected(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        with pytest.raises(EnvironmentStateError):
            env.step(PROCESS)

    def test_step_after_done_rejected(self):
        graph = chain_dag([1])
        env = small_env(graph)
        env.step(0)
        env.step(PROCESS)
        assert env.done
        with pytest.raises(EnvironmentStateError):
            env.step(PROCESS)


class TestEpisode:
    def test_chain_runs_to_exact_makespan(self, chain3):
        env = small_env(chain3, until_completion=True)
        total_reward = 0
        while not env.done:
            actions = env.legal_actions()
            action = actions[0]
            total_reward += env.step(action).reward
        assert env.makespan == 6  # runtimes 2 + 3 + 1, strictly serial
        assert total_reward == -6

    def test_makespan_before_done_raises(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        with pytest.raises(EnvironmentStateError):
            _ = env.makespan

    def test_parallel_tasks_overlap(self):
        graph = independent_tasks_dag([3, 3], demands=[(4, 4), (4, 4)])
        env = small_env(graph, until_completion=True)
        env.step(0)
        env.step(0)  # ready list shrinks; index 0 again
        env.step(PROCESS)
        assert env.done
        assert env.makespan == 3

    def test_to_schedule_round_trip(self, chain3):
        env = small_env(chain3, until_completion=True)
        while not env.done:
            env.step(env.legal_actions()[0])
        schedule = env.to_schedule("test")
        assert schedule.makespan == env.makespan
        assert schedule.num_tasks == 3
        assert schedule.scheduler == "test"

    def test_to_schedule_before_done_raises(self, chain3, env_config):
        env = SchedulingEnv(chain3, env_config)
        with pytest.raises(EnvironmentStateError):
            env.to_schedule()


class TestBacklog:
    def test_visible_window_limits_ready(self):
        graph = independent_tasks_dag([1] * 8, demands=[(1, 1)] * 8)
        env = small_env(graph, max_ready=3)
        assert env.visible_ready() == [0, 1, 2]
        assert env.backlog_size == 5
        assert env.all_ready() == list(range(8))

    def test_backlog_promotes_fifo(self):
        graph = independent_tasks_dag([1] * 8, demands=[(1, 1)] * 8)
        env = small_env(graph, max_ready=3)
        env.step(1)  # schedule task 1
        assert env.visible_ready() == [0, 2, 3]

    def test_newly_ready_tasks_join_backlog_tail(self):
        # Source 0 unlocks 5, 6; initial ready: 0..4 (visible 3 of them).
        tasks = [Task(i, 1, (1, 1)) for i in range(7)]
        graph = TaskGraph(tasks, [(0, 5), (0, 6)])
        env = small_env(graph, max_ready=3)
        env.step(0)
        env.step(PROCESS)  # 0 completes; 5, 6 become ready after 1..4
        assert env.all_ready() == [1, 2, 3, 4, 5, 6]


class TestActionSets:
    def test_legal_excludes_non_fitting(self):
        graph = independent_tasks_dag([2, 2], demands=[(8, 8), (8, 8)])
        env = small_env(graph)
        env.step(0)
        assert env.legal_actions() == [PROCESS]

    def test_expansion_work_conserving_drops_process(self):
        graph = independent_tasks_dag([2, 2], demands=[(3, 3), (3, 3)])
        env = small_env(graph)
        env.step(0)
        assert PROCESS not in env.expansion_actions(work_conserving=True)
        assert PROCESS in env.expansion_actions(work_conserving=False)

    def test_expansion_keeps_process_when_nothing_fits(self):
        graph = independent_tasks_dag([2, 2], demands=[(8, 8), (8, 8)])
        env = small_env(graph)
        env.step(0)
        assert env.expansion_actions(work_conserving=True) == [PROCESS]


class TestClone:
    def test_clone_diverges_independently(self, chain3):
        env = small_env(chain3, until_completion=True)
        env.step(0)
        copy = env.clone()
        copy.step(PROCESS)
        assert env.now == 0
        assert copy.now == 2
        assert env.signature() != copy.signature()

    def test_clone_replays_identically(self, small_random_graph):
        env = small_env(small_random_graph, until_completion=True)
        env.step(0)
        copy = env.clone()
        while not env.done:
            action = env.legal_actions()[0]
            env.step(action)
            copy.step(action)
        assert copy.done
        assert copy.makespan == env.makespan

    def test_signature_equal_for_equal_states(self, chain3):
        a = small_env(chain3)
        b = small_env(chain3)
        assert a.signature() == b.signature()


class TestTerminalVerification:
    """A finished episode is checked by exporting it and running the
    schedule verifier on the export; the environment has no hook."""

    def _run_to_completion(self, env):
        while not env.done:
            schedulable = [a for a in env.legal_actions() if a != PROCESS]
            env.step(schedulable[0] if schedulable else PROCESS)

    def _verify(self, env):
        validate_schedule(
            env.to_schedule(), env.graph, env.config.cluster.capacities
        )

    def test_clean_episode_passes_hook(self):
        graph = chain_dag([2, 3], demands=[(2, 2)] * 2)
        env = small_env(graph, until_completion=True)
        self._run_to_completion(env)
        self._verify(env)
        self._verify(env)  # checking is read-only and re-runnable

    def test_hook_requires_terminal_state(self):
        graph = chain_dag([2, 3], demands=[(2, 2)] * 2)
        env = small_env(graph)
        with pytest.raises(EnvironmentStateError, match="not finished"):
            self._verify(env)

    def test_corrupted_terminal_state_raises(self):
        graph = chain_dag([2, 3], demands=[(2, 2)] * 2)
        env = small_env(graph, until_completion=True)
        self._run_to_completion(env)
        # Simulate environment-dynamics drift: falsify a recorded start.
        env._starts[1] = 0
        with pytest.raises(ScheduleError, match="dependency"):
            self._verify(env)
