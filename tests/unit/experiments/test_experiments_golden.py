"""Golden experiment makespans: every figure's arms pinned per instance.

``tests/data/experiments_golden.json`` was generated at the last commit
whose figures each spelled out their own plan -> validate -> append loop.
Identical makespans for every arm on every instance — Fig. 6(a), 7, 8(a),
8(b), 9(c), Table I, the ablations, the diversity and generalization
studies and ``repro compare`` — mean one tournament loop schedules what
the per-figure loops scheduled.  Case definitions live in
``tests/data/make_experiments_golden.py`` (also the regeneration script).
"""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_generator():
    path = Path(__file__).resolve().parents[2] / "data" / "make_experiments_golden.py"
    spec = importlib.util.spec_from_file_location("make_experiments_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
GOLDEN_TEXT = generator.GOLDEN_PATH.read_text(encoding="utf-8")
EXPECTED = json.loads(GOLDEN_TEXT)


@pytest.fixture(scope="module")
def computed():
    return generator.compute_golden()


def test_golden_covers_the_declared_cases():
    assert sorted(EXPECTED) == sorted(generator.CASES)


@pytest.mark.parametrize("case_id", generator.CASES)
def test_case_is_the_golden_case(computed, case_id):
    assert json.loads(json.dumps(computed[case_id])) == EXPECTED[case_id], (
        "an experiment no longer reproduces its golden makespans; if the "
        "change is intentional, regenerate and document it"
    )


def test_golden_file_reproduces_byte_for_byte(computed):
    assert generator.dumps(computed) == GOLDEN_TEXT
