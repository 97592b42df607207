"""Lockstep batched playouts and virtual-loss bookkeeping."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig, MctsConfig, WorkloadConfig
from repro.dag import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv
from repro.envarr.batch import BatchedPlayouts, batch_random_playouts
from repro.envarr.graphdata import graph_arrays
from repro.errors import EnvironmentStateError
from repro.utils.rng import as_generator

CAPS = (10, 10)
WORKLOAD = WorkloadConfig(
    num_tasks=20, max_runtime=6, max_demand=8, runtime_mean=3, demand_mean=4
)


def make_config(until_completion=True):
    return EnvConfig(
        cluster=ClusterConfig(capacities=CAPS, horizon=8),
        process_until_completion=until_completion,
    )


def make_lanes(seed, batch, until_completion=True, advance=0):
    graph = random_layered_dag(WORKLOAD, seed=seed)
    config = make_config(until_completion)
    base = SchedulingEnv(graph, config)
    rng = as_generator(seed + 1)
    for _ in range(advance):
        if base.done:
            break
        actions = base.legal_actions()
        base.step(actions[int(rng.integers(len(actions)))])
    lanes = [base.clone() for _ in range(batch)]
    kernel = BatchedPlayouts(graph, config)
    limit = 50 * (int(kernel.arrays.durations.sum()) + graph.num_tasks)
    return base, lanes, kernel, limit


class TestBatchedPlayouts:
    def test_seeded_runs_are_identical(self):
        _, lanes, kernel, limit = make_lanes(0, batch=17)
        first, _ = kernel.run(lanes, as_generator(42), limit)
        second, _ = kernel.run(lanes, as_generator(42), limit)
        assert np.array_equal(first, second)

    def test_input_lanes_are_never_mutated(self):
        _, lanes, kernel, limit = make_lanes(1, batch=5, advance=3)
        before = [env.signature() for env in lanes]
        kernel.run(lanes, as_generator(7), limit)
        assert [env.signature() for env in lanes] == before

    def test_recorded_starts_form_feasible_schedules(self):
        _, lanes, kernel, limit = make_lanes(2, batch=9)
        arrays = kernel.arrays
        makespans, starts = kernel.run(
            lanes, as_generator(3), limit, record_starts=True
        )
        assert starts is not None and starts.shape == (9, arrays.num_tasks)
        durations = arrays.durations
        for lane in range(starts.shape[0]):
            lane_starts = starts[lane]
            assert (lane_starts >= 0).all()
            finishes = lane_starts + durations
            assert int(finishes.max()) == int(makespans[lane])
            # Precedence: every child starts at or after each parent's
            # finish.
            for i in range(arrays.num_tasks):
                for c in arrays.children_of(i):
                    assert lane_starts[int(c)] >= finishes[i]
            # Capacity: accumulate demand over the occupied slots.
            horizon = int(finishes.max())
            usage = np.zeros((horizon, arrays.num_resources), dtype=np.int64)
            for i in range(arrays.num_tasks):
                usage[lane_starts[i] : finishes[i]] += arrays.demands[i]
            assert (usage <= np.asarray(CAPS)).all()

    @pytest.mark.parametrize(
        "capacities, packed",
        [
            ((511,) * 6, False),  # 60 bits: fits int64, not float64
            ((1023,) * 4 + (511,), False),  # 4 x 11 + 10 = 54: one too many
            ((1023,) * 4 + (255,), True),  # 4 x 11 + 9: exactly 53 bits
        ],
        ids=["60-bit-layout", "54-bit-layout", "53-bit-layout"],
    )
    def test_wide_resource_vectors_are_played_exactly(self, capacities, packed):
        """Released demand is summed in float64, so a packed layout past
        53 bits let the low fields of the free vector drift until a lane
        could neither schedule nor process ("no legal actions")."""
        from repro.analysis.verifier import verify_placements
        from repro.envarr.batch import _pack_layout

        workload = WorkloadConfig(
            num_tasks=40,
            max_demand=min(capacities),
            demand_mean=min(capacities) / 2,
            demand_std=min(capacities) / 4,
        )
        config = EnvConfig(
            cluster=ClusterConfig(capacities=capacities, horizon=8),
            process_until_completion=True,
        )
        for seed in range(6):
            graph = random_layered_dag(
                workload, seed=seed, num_resources=len(capacities)
            )
            kernel = BatchedPlayouts(graph, config)
            lanes = [SchedulingEnv(graph, config) for _ in range(4)]
            makespans, starts = kernel.run(
                lanes, as_generator(seed), 100_000, record_starts=True
            )
            arrays = kernel.arrays
            for lane in range(len(lanes)):
                placements = [
                    (
                        int(arrays.ids[i]),
                        int(starts[lane, i]),
                        int(starts[lane, i] + arrays.durations[i]),
                    )
                    for i in range(arrays.num_tasks)
                ]
                report = verify_placements(placements, graph, capacities)
                assert report.ok, report.summary()
                assert max(p[2] for p in placements) == int(makespans[lane])
            assert np.array_equal(
                kernel.demands_packed_f.astype(np.int64), kernel.demands_packed
            )
        assert (_pack_layout(capacities) is not None) == packed

    def test_mid_episode_lanes_complete_consistently(self):
        base, lanes, kernel, limit = make_lanes(3, batch=6, advance=5)
        makespans, _ = kernel.run(lanes, as_generator(11), limit)
        # Every lane continues the shared prefix, so no lane can finish
        # before the time already committed in it.
        assert (makespans >= base.now).all()

    def test_unit_granularity_mode(self):
        _, lanes, kernel, limit = make_lanes(4, batch=4, until_completion=False)
        makespans, _ = kernel.run(lanes, as_generator(5), limit)
        assert (makespans > 0).all()

    def test_foreign_lane_rejected(self):
        _, lanes, kernel, limit = make_lanes(5, batch=2)
        other = SchedulingEnv(
            random_layered_dag(WORKLOAD, seed=99), make_config()
        )
        with pytest.raises(EnvironmentStateError, match="graph"):
            kernel.run([lanes[0], other], as_generator(1), limit)

    def test_same_shaped_graph_is_still_foreign(self):
        """Equal ids and sizes are not enough: the kernel's adjacency is
        one graph's, so lanes are matched by identity."""
        base, _, kernel, limit = make_lanes(5, batch=1)
        twin = SchedulingEnv(random_layered_dag(WORKLOAD, seed=5), base.config)
        with pytest.raises(EnvironmentStateError, match="graph"):
            kernel.run([twin], as_generator(1), limit)

    @pytest.mark.parametrize(
        "change",
        [
            {"cluster": ClusterConfig(capacities=(40, 40), horizon=8)},
            {"max_ready": 3},
            {"process_until_completion": False},
        ],
        ids=["capacities", "max_ready", "granularity"],
    )
    def test_lane_under_another_config_rejected(self, change):
        """Played anyway, a lane with larger capacities overflows the
        packed fit test's guard bits and is mis-played without an error."""
        from dataclasses import replace

        base, lanes, kernel, limit = make_lanes(5, batch=2)
        stranger = SchedulingEnv(base.graph, replace(base.config, **change))
        with pytest.raises(EnvironmentStateError, match="EnvConfig"):
            kernel.run([lanes[0], stranger], as_generator(1), limit)

    def test_equal_config_objects_are_accepted(self):
        base, _, kernel, limit = make_lanes(5, batch=1)
        lane = SchedulingEnv(base.graph, make_config())
        assert lane.config is not kernel.config
        makespans, _ = kernel.run([lane], as_generator(1), limit)
        assert makespans.shape == (1,)

    def test_zero_lanes_return_empty_results(self):
        _, _, kernel, limit = make_lanes(5, batch=1)
        makespans, starts = kernel.run([], as_generator(1), limit)
        assert makespans.shape == (0,) and starts is None
        makespans, starts = kernel.run(
            [], as_generator(1), limit, record_starts=True
        )
        assert makespans.shape == (0,)
        assert starts.shape == (0, kernel.arrays.num_tasks)
        assert batch_random_playouts([], as_generator(1), limit) == []

    def test_kernel_accepts_graph_or_compiled_arrays(self):
        base, lanes, kernel, limit = make_lanes(6, batch=4)
        compiled = BatchedPlayouts(graph_arrays(base.graph), base.config)
        assert compiled.arrays is kernel.arrays
        direct, _ = kernel.run(lanes, as_generator(2), limit)
        again, _ = compiled.run(lanes, as_generator(2), limit)
        assert np.array_equal(direct, again)

    def test_convenience_wrapper_matches_kernel(self):
        _, lanes, kernel, limit = make_lanes(6, batch=8)
        direct, _ = kernel.run(lanes, as_generator(21), limit)
        wrapped = batch_random_playouts(lanes, as_generator(21), limit)
        assert np.array_equal(direct, np.asarray(wrapped))


class TestVirtualLossBookkeeping:
    def test_vloss_returns_to_zero_after_budget(self):
        """Every virtual loss taken during wave collection is repaid —
        at width 1 (the sequential search) as in a wave."""
        from repro.mcts.node import Node
        from repro.mcts.search import MctsScheduler, SearchStatistics

        graph = random_layered_dag(WORKLOAD, seed=8)
        config = make_config()
        for width in (1, 8):
            scheduler = MctsScheduler(
                MctsConfig(
                    initial_budget=48,
                    min_budget=48,
                    use_budget_decay=False,
                    rollout_batch=width,
                ),
                config,
                seed=0,
            )
            env = SchedulingEnv(graph, config)
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

    def test_batched_and_sequential_search_visit_counts_agree(self):
        """Total root visits equal the spent budget in both modes."""
        from repro.mcts.search import MctsScheduler
        from repro.schedulers.base import ScheduleRequest

        graph = random_layered_dag(WORKLOAD, seed=9)
        for batch in (1, 8):
            scheduler = MctsScheduler(
                MctsConfig(
                    initial_budget=32,
                    min_budget=32,
                    use_budget_decay=False,
                    rollout_batch=batch,
                ),
                make_config(),
                seed=0,
            )
            scheduler.plan(ScheduleRequest(graph))
            stats = scheduler.last_statistics
            assert stats is not None
            assert stats.iterations == sum(stats.budgets)
