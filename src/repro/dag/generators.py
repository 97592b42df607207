"""Synthetic DAG generators.

:func:`random_layered_dag` reproduces the simulation workload of Sec. V-A:
DAGs with a fixed number of tasks, layer widths drawn uniformly from a small
range (paper: 2..5), and task runtimes / per-resource demands drawn from
normal distributions truncated to ``[1, max]`` (paper: max 20 for both);
:func:`random_layered_dags` draws a batch of them from one seed.

The remaining generators build canonical topologies (chains, fork-join
diamonds, independent task bags) used by tests, examples and ablations.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import WorkloadConfig
from ..errors import ConfigError
from ..utils.rng import SeedLike, as_generator, spawn
from .graph import TaskGraph
from .task import Task

__all__ = [
    "random_layered_dag",
    "random_layered_dags",
    "chain_dag",
    "fork_join_dag",
    "independent_tasks_dag",
    "truncated_normal_int",
]


def truncated_normal_int(
    rng: np.random.Generator,
    mean: float,
    std: float,
    low: int,
    high: int,
    size: int,
) -> np.ndarray:
    """Draw integers from N(mean, std) rounded and clipped to ``[low, high]``.

    The paper states runtimes and demands "follow normal distributions" with
    a stated maximum; clipping (rather than rejection) keeps the generator
    O(size) and deterministic in the number of RNG draws.
    :func:`random_layered_dag` makes the same draws and clamps them in
    Python; this NumPy form is the property tests' reference for it.
    """

    if low > high:
        raise ConfigError(f"empty truncation range [{low}, {high}]")
    draws = rng.normal(mean, std, size=size)
    return np.clip(np.rint(draws), low, high).astype(int)


def _clamped_normals(
    rng: np.random.Generator,
    mean: float,
    std: float,
    low: int,
    high: int,
    size: int,
) -> List[int]:
    """:func:`truncated_normal_int`'s draws and values, as Python ints.

    Clamping to the integer bounds before ``round`` (half-even, as
    ``np.rint``) gives what rounding before clipping gives, and keeps an
    infinite draw finite.
    """
    if low > high:
        raise ConfigError(f"empty truncation range [{low}, {high}]")
    return [
        round(high if x > high else low if x < low else x)
        for x in rng.normal(mean, std, size=size).tolist()
    ]


def _draw_layers(
    rng: np.random.Generator, num_tasks: int, min_width: int, max_width: int
) -> List[int]:
    """Split ``num_tasks`` into consecutive layers of width in range."""
    layers: List[int] = []
    remaining = num_tasks
    while remaining > 0:
        width = int(rng.integers(min_width, max_width + 1))
        width = min(width, remaining)
        layers.append(width)
        remaining -= width
    return layers


def random_layered_dag(
    config: WorkloadConfig | None = None,
    *,
    seed: SeedLike = None,
    num_resources: int = 2,
    name_prefix: str = "t",
) -> TaskGraph:
    """Generate one random layered DAG per the Sec. V-A workload.

    Tasks are arranged in layers; every task in layer ``k+1`` depends on at
    least one task in layer ``k`` and, with ``config.edge_probability``, on
    each other task of layer ``k``.  Every non-terminal task gets at least
    one child so the DAG has no spurious early exits.

    Args:
        config: workload parameters; defaults to the paper's values.
        seed: RNG seed or generator.
        num_resources: resource dimensionality (paper: 2 — CPU and memory).
        name_prefix: prefix for generated task names.

    Returns:
        A validated :class:`TaskGraph`.
    """

    cfg = config if config is not None else WorkloadConfig()
    if num_resources < 1:
        raise ConfigError("num_resources must be >= 1")
    rng = as_generator(seed)

    runtimes = _clamped_normals(
        rng, cfg.runtime_mean, cfg.runtime_std, 1, cfg.max_runtime, cfg.num_tasks
    )
    columns = [
        _clamped_normals(
            rng, cfg.demand_mean, cfg.demand_std, 1, cfg.max_demand, cfg.num_tasks
        )
        for _ in range(num_resources)
    ]

    layer_sizes = _draw_layers(rng, cfg.num_tasks, cfg.min_width, cfg.max_width)
    layers: List[range] = []
    next_id = 0
    for size in layer_sizes:
        layers.append(range(next_id, next_id + size))
        next_id += size

    probability = cfg.edge_probability
    edges: List[Tuple[int, int]] = []
    for upper, lower in zip(layers, layers[1:]):
        # Random cross edges: one coin per (u, v), u-major — the doubles
        # ``len(upper) * len(lower)`` calls of ``rng.random()`` would draw.
        height, width = len(upper), len(lower)
        coins = rng.random(height * width).tolist()
        has_child = set()
        has_parent = set()
        for k, coin in enumerate(coins):
            if coin < probability:
                u = upper[k // width]
                v = lower[k % width]
                edges.append((u, v))
                has_child.add(u)
                has_parent.add(v)
        # Guarantee every lower task has a parent in the layer above, and
        # every upper task a child (no accidental sinks).  A one-task
        # layer is the pick, with no call: ``integers(0, 1)`` draws nothing.
        for v in lower:
            if v not in has_parent:
                u = upper[int(rng.integers(0, height))] if height > 1 else upper[0]
                edges.append((u, v))
                has_child.add(u)
        for u in upper:
            if u not in has_child:
                v = lower[int(rng.integers(0, width))] if width > 1 else lower[0]
                edges.append((u, v))

    # Clamped to [1, max] as exact ints, the columns obey ``check_task``.
    ids = range(cfg.num_tasks)
    return TaskGraph._from_columns(
        ids,
        runtimes,
        list(zip(*columns)),
        [f"{name_prefix}{i}" for i in ids],
        edges,
    )


def random_layered_dags(
    workload: WorkloadConfig, count: int, seed: SeedLike = None
) -> List[TaskGraph]:
    """``count`` :func:`random_layered_dag` draws, one per child of ``seed``.

    A generator passed as ``seed`` is advanced (once per DAG), so repeated
    calls on it yield fresh batches.
    """
    return [
        random_layered_dag(workload, seed=child)
        for child in spawn(as_generator(seed), count)
    ]


def chain_dag(
    runtimes: List[int],
    demands: Optional[List[Tuple[int, ...]]] = None,
    *,
    num_resources: int = 2,
    default_demand: int = 1,
) -> TaskGraph:
    """A linear chain ``t0 -> t1 -> ... -> tn-1``.

    Args:
        runtimes: runtime per task, in chain order.
        demands: optional explicit demand vectors; defaults to
            ``(default_demand,) * num_resources`` each.
    """

    if not runtimes:
        raise ConfigError("chain_dag requires at least one task")
    if demands is None:
        demands = [(default_demand,) * num_resources] * len(runtimes)
    if len(demands) != len(runtimes):
        raise ConfigError("runtimes and demands must have equal length")
    tasks = [
        Task(i, runtime, tuple(demand))
        for i, (runtime, demand) in enumerate(zip(runtimes, demands))
    ]
    edges = [(i, i + 1) for i in range(len(tasks) - 1)]
    return TaskGraph(tasks, edges)


def fork_join_dag(
    fan_out: int,
    *,
    branch_runtime: int = 1,
    head_runtime: int = 1,
    tail_runtime: int = 1,
    demand: Tuple[int, ...] = (1, 1),
) -> TaskGraph:
    """A diamond: one head task fans out to ``fan_out`` parallel branches
    which all join into one tail task."""

    if fan_out < 1:
        raise ConfigError("fan_out must be >= 1")
    tasks = [Task(0, head_runtime, demand, name="head")]
    tasks += [
        Task(i + 1, branch_runtime, demand, name=f"branch-{i}")
        for i in range(fan_out)
    ]
    tail_id = fan_out + 1
    tasks.append(Task(tail_id, tail_runtime, demand, name="tail"))
    edges = [(0, i + 1) for i in range(fan_out)]
    edges += [(i + 1, tail_id) for i in range(fan_out)]
    return TaskGraph(tasks, edges)


def independent_tasks_dag(
    runtimes: List[int],
    demands: Optional[List[Tuple[int, ...]]] = None,
    *,
    num_resources: int = 2,
    default_demand: int = 1,
) -> TaskGraph:
    """A bag of independent tasks (no edges) — the Tetris/DeepRM setting."""

    if not runtimes:
        raise ConfigError("independent_tasks_dag requires at least one task")
    if demands is None:
        demands = [(default_demand,) * num_resources] * len(runtimes)
    if len(demands) != len(runtimes):
        raise ConfigError("runtimes and demands must have equal length")
    tasks = [
        Task(i, runtime, tuple(demand))
        for i, (runtime, demand) in enumerate(zip(runtimes, demands))
    ]
    return TaskGraph(tasks, edges=())
