"""Golden Spear plans: whole network-guided searches pinned exactly.

``tests/data/spear_plan_golden.json`` was generated at the commit before
the single-state policy step was fused (forced moves skip the forward,
one shared inverse-CDF sampler), so an identical plan means the fused
step changed no action and no RNG draw anywhere in a search.  Case
definitions live in ``tests/data/make_spear_plan_golden.py`` (also the
regeneration script).
"""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_generator():
    path = Path(__file__).resolve().parents[2] / "data" / "make_spear_plan_golden.py"
    spec = importlib.util.spec_from_file_location("make_spear_plan_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
EXPECTED = json.loads(generator.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_the_declared_cases():
    assert EXPECTED["spec"] == generator.SPEC
    assert [(p["model"], p["graph_seed"]) for p in EXPECTED["plans"]] == [
        (model, seed)
        for model in ("mlp", "gnn")
        for seed in generator.GRAPH_SEEDS
    ]


@pytest.mark.parametrize(
    "expected",
    EXPECTED["plans"],
    ids=[f"{p['model']}-{p['graph_seed']}" for p in EXPECTED["plans"]],
)
def test_plan_is_the_golden_plan(expected):
    got = generator._plan(expected["model"], expected["graph_seed"])
    assert got == expected, (
        "a network-guided search no longer reproduces its golden plan; if "
        "the change is intentional, regenerate and document it"
    )
