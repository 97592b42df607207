"""Unit tests for the classic DAG-scheduling benchmark topologies."""

import pytest

from repro.dag import (
    cholesky_dag,
    fft_dag,
    gaussian_elimination_dag,
    stencil_dag,
)
from repro.errors import ConfigError
from repro.schedulers import ScheduleRequest


class TestGaussianElimination:
    def test_task_count(self):
        # n(n+1)/2 - 1 tasks: n=4 -> 9 (3 pivots + 3+2+1 updates).
        graph = gaussian_elimination_dag(4)
        assert graph.num_tasks == 9

    def test_pivot_chain_is_critical(self):
        graph = gaussian_elimination_dag(4, pivot_runtime=5, update_runtime=1)
        # Pivots and the inter-step updates alternate on the longest path:
        # pivot, update, pivot, update, pivot, update = 3*(5+1) = 18.
        assert graph.critical_path_length() == 18

    def test_single_source_is_first_pivot(self):
        graph = gaussian_elimination_dag(5)
        assert graph.sources() == (0,)
        assert graph.task(0).name == "pivot-0"

    def test_triangular_narrowing(self):
        graph = gaussian_elimination_dag(5)
        levels = graph.levels()
        widths = [len(level) for level in levels]
        assert max(widths) == 4  # widest update fan-out is n-1

    def test_minimum_size_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_elimination_dag(1)

    def test_schedulable(self):
        from repro.config import ClusterConfig, EnvConfig
        from repro.metrics import validate_schedule
        from repro.schedulers import make_scheduler

        graph = gaussian_elimination_dag(5)
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8)
        )
        schedule = make_scheduler("cp", env_config).plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, (10, 10))


class TestFft:
    def test_task_count(self):
        # points=4 (k=2): splits 1+2+4=7, combines 2 layers x 2 = 4 -> 11.
        graph = fft_dag(4)
        assert graph.num_tasks == 11

    def test_single_source(self):
        graph = fft_dag(8)
        assert graph.sources() == (0,)

    def test_combine_layers_have_two_parents(self):
        graph = fft_dag(4)
        butterfly_ids = [
            t.task_id for t in graph if t.name and t.name.startswith("butterfly")
        ]
        for tid in butterfly_ids:
            assert len(graph.parents(tid)) == 2

    def test_critical_path(self):
        graph = fft_dag(4, split_runtime=1, combine_runtime=3)
        # 3 splits deep (1+1+1) + 2 combine layers (3+3) = 9.
        assert graph.critical_path_length() == 9

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            fft_dag(6)
        with pytest.raises(ConfigError):
            fft_dag(1)


class TestStencil:
    def test_task_count(self):
        assert stencil_dag(5, 4).num_tasks == 20

    def test_dependencies_clamp_at_boundaries(self):
        graph = stencil_dag(3, 2)
        # Cell (1, 0) depends on (0, 0) and (0, 1) only.
        assert graph.parents(3) == (0, 1)
        # Cell (1, 1) depends on all three cells of step 0.
        assert graph.parents(4) == (0, 1, 2)

    def test_critical_path_is_steps(self):
        graph = stencil_dag(6, 7, runtime=2)
        assert graph.critical_path_length() == 14

    def test_width_equals_row(self):
        assert stencil_dag(6, 3).width() == 6

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            stencil_dag(0, 3)
        with pytest.raises(ConfigError):
            stencil_dag(3, 0)


class TestCholesky:
    def test_task_count(self):
        # tiles=3: k=0: potrf + 2 trsm + 2 syrk + 1 gemm = 6;
        # k=1: potrf + 1 trsm + 1 syrk = 3; k=2: potrf = 1 -> 10.
        graph = cholesky_dag(3)
        assert graph.num_tasks == 10

    def test_single_tile_is_one_potrf(self):
        graph = cholesky_dag(1)
        assert graph.num_tasks == 1
        assert graph.task(0).name == "potrf-0"

    def test_potrf_chain_orders_steps(self):
        graph = cholesky_dag(3)
        names = {t.task_id: t.name for t in graph}
        potrfs = sorted(tid for tid, n in names.items() if n.startswith("potrf"))
        # Each later potrf transitively depends on the previous one.
        assert potrfs[0] in graph.ancestors(potrfs[1])
        assert potrfs[1] in graph.ancestors(potrfs[2])

    def test_kernel_mix_present(self):
        graph = cholesky_dag(4)
        prefixes = {t.name.split("-")[0] for t in graph}
        assert prefixes == {"potrf", "trsm", "syrk", "gemm"}

    def test_invalid_tiles(self):
        with pytest.raises(ConfigError):
            cholesky_dag(0)

    def test_schedulable_and_bounded(self):
        from repro.config import ClusterConfig, EnvConfig
        from repro.dag import makespan_lower_bound
        from repro.metrics import validate_schedule
        from repro.schedulers import make_scheduler

        graph = cholesky_dag(4)
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8)
        )
        schedule = make_scheduler("tetris", env_config).plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, (10, 10))
        assert schedule.makespan >= makespan_lower_bound(graph, (10, 10))
