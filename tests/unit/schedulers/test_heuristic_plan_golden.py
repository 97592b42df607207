"""Golden heuristic schedules: every list heuristic's episode pinned exactly.

``tests/data/heuristic_plan_golden.json`` was generated at the last commit
whose heuristics each spelled out their own ``select`` and whose
``run_policy`` / ``GreedyRollout.rollout`` stepped the environment one
``select`` at a time.  Identical start times, step counts and makespans
— from fresh and mid-episode states, event and unit-slot processing,
with and without a backlog — mean the episode-level ``Policy.playout``
plays the same episode.  Case definitions live in
``tests/data/make_heuristic_plan_golden.py`` (also the regeneration
script).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import ScheduleRequest, WorkloadConfig, make_scheduler, random_layered_dag
from repro.schedulers import ClusterSnapshot


def _load_generator():
    path = (
        Path(__file__).resolve().parents[2] / "data" / "make_heuristic_plan_golden.py"
    )
    spec = importlib.util.spec_from_file_location("make_heuristic_plan_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
GOLDEN_TEXT = generator.GOLDEN_PATH.read_text(encoding="utf-8")
EXPECTED = json.loads(GOLDEN_TEXT)


def test_golden_covers_the_declared_cases():
    assert sorted(EXPECTED) == sorted(generator.case_ids())
    assert len(EXPECTED) == (
        len(generator.POLICIES) * len(generator.GRAPHS) * len(generator.ENVS)
        + len(generator.GRAPHS) * len(generator.ENVS)
        + len(generator.SCHEDULERS) * len(generator.DEGRADED_GRAPHS) * 2
    )


@pytest.mark.parametrize("case_id", generator.case_ids())
def test_case_is_the_golden_case(case_id):
    assert generator.compute_case(case_id) == EXPECTED[case_id], (
        "a list heuristic no longer reproduces its golden episode; if the "
        "change is intentional, regenerate and document it"
    )


def test_golden_file_reproduces_byte_for_byte():
    assert generator.dumps(generator.compute_golden()) == GOLDEN_TEXT


def test_the_cases_are_not_all_forced():
    """The golden would pin nothing about ranking if no state offered a
    choice: every graph has episodes where policies disagree."""
    for graph in generator.GRAPHS:
        makespans = {
            EXPECTED[f"episode/{policy}/{graph}/event-default"]["fresh"]["makespan"]
            for policy in generator.POLICIES
        }
        assert len(makespans) > 2, graph


def degraded_request(graph):
    capacities = generator.DEGRADED_CAPACITIES
    return ScheduleRequest(
        graph, cluster=ClusterSnapshot(capacities=capacities, available=capacities)
    )


@pytest.mark.parametrize("graph_name", generator.DEGRADED_GRAPHS)
@pytest.mark.parametrize("name", generator.SCHEDULERS)
def test_degraded_plan_fits_the_degraded_cluster(name, graph_name):
    """Every planner reads the request's cluster snapshot: the verifier
    (``ScheduleError`` on any violation) checks the plan against the
    degraded capacities, not the configured ones."""
    graph = generator.make_graph(graph_name)
    schedule = make_scheduler(name, verify=True).plan(degraded_request(graph))
    assert len(schedule.placements) == graph.num_tasks


def test_optimal_plans_the_degraded_request():
    graph = random_layered_dag(
        WorkloadConfig(num_tasks=8, max_demand=12, demand_mean=6.0), seed=404
    )
    request = degraded_request(graph)
    schedule = make_scheduler("optimal:verify=true").plan(request)
    # The degraded optimum can be no shorter than the full-cluster one.
    full = make_scheduler("optimal").plan(ScheduleRequest(graph))
    assert schedule.makespan >= full.makespan
