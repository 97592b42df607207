"""Golden job construction: ``random_layered_dag`` and ``compute_features``.

Every workload of the library draws its DAGs through
:func:`~repro.dag.generators.random_layered_dag` (the offline suites, the
training graphs, the arrival streams, the serve workload), so one draw
more or less moves every other golden.  ``dag_golden.json`` holds, per
case:

* ``tasks`` — ``[id, runtime, demands, name]`` per task, in id order;
* ``edges`` — the sorted ``[upstream, downstream]`` pairs;
* ``state`` — the passed generator's ``bit_generator.state`` after the
  draw (``null`` for an int seed, whose generator is private): the
  number of draws, and which kind, is pinned, not only their values;
* ``features`` — every :class:`~repro.dag.features.GraphFeatures` field,
  each mapping as ``[task, value]`` pairs in its iteration order, so the
  key order is pinned too.

Cases: the streaming job profile, the paper's 100-task workload, 30
tasks, edge probabilities 0 and 1, one task per layer, a single task,
and 1 and 3 resources; each seeded once by an int and once by a
``Generator``.
"""

from __future__ import annotations

import numpy as np

from repro import WorkloadConfig, random_layered_dag
from repro.dag.features import compute_features
from repro.streaming.arrivals import streaming_workload
from tests.golden import expected

FILE = "dag_golden.json"
LAYOUT = "one-case-per-line"

#: name -> (workload, num_resources, seed)
CONFIGS = {
    "streaming": (streaming_workload(), 2, 11),
    "paper": (WorkloadConfig(), 2, 12),
    "tasks30": (WorkloadConfig(num_tasks=30), 2, 13),
    "edges0": (WorkloadConfig(num_tasks=30, edge_probability=0.0), 2, 14),
    "edges1": (WorkloadConfig(num_tasks=30, edge_probability=1.0), 2, 15),
    "chain": (WorkloadConfig(num_tasks=30, min_width=1, max_width=1), 2, 16),
    "single": (WorkloadConfig(num_tasks=1), 2, 17),
    "resources1": (WorkloadConfig(num_tasks=30), 1, 18),
    "resources3": (WorkloadConfig(num_tasks=30), 3, 19),
    "streaming-r3": (streaming_workload(), 3, 20),
}
SEEDINGS = ("int", "generator")
CASES = {
    f"{name}-{seeding}": (FILE, f"{name}-{seeding}")
    for name in CONFIGS
    for seeding in SEEDINGS
}


def _pairs(mapping) -> list:
    return [[key, value] for key, value in mapping.items()]


def compute(case: str) -> dict:
    name, seeding = case.rsplit("-", 1)
    workload, num_resources, seed = CONFIGS[name]
    rng = np.random.default_rng(seed) if seeding == "generator" else None
    graph = random_layered_dag(
        workload, seed=seed if rng is None else rng, num_resources=num_resources
    )
    features = compute_features(graph)
    return {
        "tasks": [
            [task.task_id, task.runtime, list(task.demands), task.name]
            for task in sorted(graph, key=lambda task: task.task_id)
        ],
        "edges": sorted([u, v] for u, v in graph.edges()),
        "state": None if rng is None else rng.bit_generator.state,
        "features": {
            "b_level": _pairs(features.b_level),
            "t_level": _pairs(features.t_level),
            "num_children": _pairs(features.num_children),
            "b_load": _pairs(features.b_load),
            "critical_path": features.critical_path,
        },
    }


def check_an_int_seed_draws_what_its_generator_draws():
    """An int seed goes through the same generator as ``default_rng(seed)``."""
    for name in CONFIGS:
        by_int, by_generator = (expected("dag", f"{name}-{s}") for s in SEEDINGS)
        assert by_int["tasks"] == by_generator["tasks"], name
        assert by_int["edges"] == by_generator["edges"], name


def check_the_guarantee_draws_are_exercised():
    """Edge probability 0 leaves every link to the parent and child
    guarantees; probability 1 leaves them nothing to add."""
    sparse = expected("dag", "edges0-int")
    dense = expected("dag", "edges1-int")
    assert len(dense["edges"]) > len(sparse["edges"]) >= 29
    assert expected("dag", "single-int")["edges"] == []
    chain = expected("dag", "chain-int")["edges"]
    assert chain == [[i, i + 1] for i in range(29)]
