"""Golden Graphene plans: every candidate plan and the final schedule.

``tests/data/graphene_golden.json`` pins, for each case, every
``candidate_plans()`` entry (threshold, direction, troublesome set,
derived order, virtual makespan) and the placements ``plan()`` returns.
Case definitions live in ``tests/data/make_graphene_golden.py`` (also the
regeneration script).
"""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_generator():
    path = Path(__file__).resolve().parents[2] / "data" / "make_graphene_golden.py"
    spec = importlib.util.spec_from_file_location("make_graphene_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
GOLDEN_TEXT = generator.GOLDEN_PATH.read_text(encoding="utf-8")
EXPECTED = json.loads(GOLDEN_TEXT)


def test_golden_covers_the_declared_cases():
    assert sorted(EXPECTED) == sorted(generator.CASES)
    for name, case in EXPECTED.items():
        assert len(case["candidates"]) == 8, name
        assert len(case["plan"]) == generator.make_graph(name).num_tasks, name


@pytest.mark.parametrize("name", generator.CASES)
def test_case_is_the_golden_case(name):
    assert generator.compute_case(name) == EXPECTED[name], (
        "Graphene no longer reproduces its golden plans; if the change is "
        "intentional, regenerate and document it"
    )


def test_golden_file_reproduces_byte_for_byte():
    assert generator.dumps(generator.compute_golden()) == GOLDEN_TEXT


def test_the_candidates_are_not_all_alike():
    """The golden would pin little about packing if every candidate agreed:
    on each random DAG, forward and backward placement give different
    orders and the thresholds give different troublesome sets."""
    for name in ("layered30", "layered100", "layered3r", "mapreduce", "degraded30"):
        candidates = EXPECTED[name]["candidates"]
        orders = {tuple(c["order"]) for c in candidates}
        troublesome = {tuple(c["troublesome"]) for c in candidates}
        assert len(orders) > 2, name
        assert len(troublesome) > 1, name
