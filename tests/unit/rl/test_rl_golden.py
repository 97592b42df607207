"""Golden RL numerics: fixed-seed module/trainer runs asserted bit-exact.

The committed ``tests/data/rl_golden.json`` pins the numerics of the
differentiable module stack and both historical trainers as they were
before the pluggable-policy refactor: fixed-seed logits, masked
probabilities, policy gradients, value-network fits, imitation loss
curves and three epochs of REINFORCE (every float via ``float.hex()``,
final parameters via SHA-256 digest).  The REINFORCE case was
regenerated once, when the trainers moved to decided rows (only
entropies, losses and the digest moved; ``test_train_on_decisions.py``
holds the new update to the old one).  Any other refactor of
``repro.rl`` must leave all of these byte-identical.

Case definitions and serialization live in
``tests/data/make_rl_golden.py`` (also the regeneration script), so
this test can never disagree with what regeneration writes.
"""

import importlib.util
from pathlib import Path

import pytest


def _load_make_rl_golden():
    path = Path(__file__).resolve().parents[3] / "tests" / "data" / "make_rl_golden.py"
    spec = importlib.util.spec_from_file_location("make_rl_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_rl_golden = _load_make_rl_golden()


@pytest.fixture(scope="module")
def golden():
    return make_rl_golden.compute_golden()


def test_golden_file_exists():
    assert make_rl_golden.GOLDEN_PATH.exists(), (
        "missing tests/data/rl_golden.json; regenerate with "
        "PYTHONPATH=src python tests/data/make_rl_golden.py"
    )


@pytest.mark.parametrize("case", ["network", "value", "imitation", "reinforce"])
def test_golden_case_bit_identical(golden, case):
    import json

    expected = json.loads(
        make_rl_golden.GOLDEN_PATH.read_text(encoding="utf-8")
    )
    assert golden[case] == expected[case], (
        f"rl golden case {case!r} diverged — the refactored stack no "
        "longer reproduces the historical numerics bit-for-bit; if the "
        "change is intentional, regenerate and document it"
    )


def test_golden_serialization_byte_identical(golden):
    expected = make_rl_golden.GOLDEN_PATH.read_text(encoding="utf-8")
    assert make_rl_golden.serialize(golden) == expected
