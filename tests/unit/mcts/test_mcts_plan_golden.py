"""Golden sequential searches: whole ``rollout_batch=1`` plans pinned exactly.

``tests/data/mcts_plan_golden.json`` was generated at the last commit
whose sequential search was its own loop.  An identical plan, identical
search statistics *and* an identical final generator state mean the
wave collector at width 1 visits the same nodes and draws the same
random numbers as that loop did.  Case definitions live in
``tests/data/make_mcts_plan_golden.py`` (also the regeneration script).
"""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_generator():
    path = Path(__file__).resolve().parents[2] / "data" / "make_mcts_plan_golden.py"
    spec = importlib.util.spec_from_file_location("make_mcts_plan_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
EXPECTED = json.loads(generator.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_the_declared_cases():
    assert EXPECTED["budget"] == generator.BUDGET
    assert [p["graph_seed"] for p in EXPECTED["plans"]] == list(generator.GRAPH_SEEDS)
    assert EXPECTED["degraded_plan"]["capacities"] == list(
        generator.DEGRADED_CAPACITIES
    )
    assert [
        (p["disabled"], p["graph_seed"]) for p in EXPECTED["ablation_plans"]
    ] == list(generator.ABLATIONS)


@pytest.mark.parametrize(
    "expected",
    EXPECTED["plans"] + EXPECTED["ablation_plans"],
    ids=lambda p: f"{p['disabled'] or 'default'}-{p['graph_seed']}",
)
def test_sequential_search_is_the_golden_search(expected):
    got = generator._plan(expected["graph_seed"], expected["disabled"])
    assert got == expected, (
        "a sequential search no longer reproduces its golden plan; if the "
        "change is intentional, regenerate and document it"
    )


def test_degraded_replan_is_the_golden_search():
    assert generator._degraded_plan() == EXPECTED["degraded_plan"]
