"""Golden wave searches: whole batched searches pinned exactly.

``tests/data/wave_search_golden.json`` holds batched pure-MCTS plans whose
lanes are played one by one with the fused random playout.  An identical
plan *and* identical search statistics mean no wave, no collection order
and no RNG draw moved; every plan also passes ``validate_schedule`` as it
is recomputed.
Case definitions live in ``tests/data/make_wave_search_golden.py`` (also
the regeneration script).
"""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_generator():
    path = Path(__file__).resolve().parents[2] / "data" / "make_wave_search_golden.py"
    spec = importlib.util.spec_from_file_location("make_wave_search_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
EXPECTED = json.loads(generator.GOLDEN_PATH.read_text(encoding="utf-8"))


def _case_id(plan: dict) -> str:
    parts = [plan["scheduler"], plan["model"], plan["leaf_policy"]]
    return "-".join([p for p in parts if p] + [str(plan["graph_seed"])])


def test_golden_covers_the_declared_cases():
    assert EXPECTED["rollout_batch"] == generator.ROLLOUT_BATCH
    assert [
        (p["scheduler"], p["model"], p["leaf_policy"], p["graph_seed"])
        for p in EXPECTED["plans"]
    ] == [
        (*search, seed)
        for search in generator.SEARCHES
        for seed in generator.GRAPH_SEEDS
    ]
    assert [
        (p["scheduler"], p["model"], p["leaf_policy"])
        for p in EXPECTED["degraded_plans"]
    ] == list(generator.DEGRADED_SEARCHES)


@pytest.mark.parametrize(
    "expected", EXPECTED["plans"], ids=[_case_id(p) for p in EXPECTED["plans"]]
)
def test_wave_search_is_the_golden_search(expected):
    got = generator._plan(
        expected["scheduler"],
        expected["model"],
        expected["leaf_policy"],
        expected["graph_seed"],
    )
    assert got == expected, (
        "a batched search no longer reproduces its golden plan; if the "
        "change is intentional, regenerate and document it"
    )


@pytest.mark.parametrize(
    "expected",
    EXPECTED["degraded_plans"],
    ids=[_case_id(p) for p in EXPECTED["degraded_plans"]],
)
def test_degraded_replan_is_the_golden_search(expected):
    got = generator._degraded_plan(
        expected["scheduler"], expected["model"], expected["leaf_policy"]
    )
    assert got == expected

