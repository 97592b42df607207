"""Golden GNN / PPO numerics: fixed-seed runs asserted bit-exact.

``tests/data/gnn_golden.json`` was cut on the commit before the
message-passing scatter (``np.add.at``) became a rank-sliced gather and
before PPO stopped forwarding each minibatch twice.  Identical logits,
gradients, ``EpochStats``, parameter digests *and* final generator
states meant neither rewrite moved a bit or a random draw.  The three
training cases were regenerated when the trainers moved to decided rows:
integers, makespans, generator states and critic digests stayed;
entropies, losses and policy digests moved by float summation order.
The file was regenerated once more when a step batch became one pass
over the disjoint union of its states' graphs and PPO began reading
``pi_old`` from the recorded rows: ``forward_backward`` kept its logits
and every gradient but ``head.c`` (one ulp); the training cases kept
every integer, makespan, generator state and critic digest, and moved
only mean entropies, mean losses and policy digests.  Case definitions
and serialization live in ``tests/data/make_gnn_golden.py`` (also the
regeneration script).
"""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_generator():
    path = Path(__file__).resolve().parents[2] / "data" / "make_gnn_golden.py"
    spec = importlib.util.spec_from_file_location("make_gnn_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
EXPECTED = json.loads(generator.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_the_declared_cases():
    assert sorted(EXPECTED) == sorted(generator.CASES)


@pytest.mark.parametrize("case", sorted(generator.CASES))
def test_golden_case_bit_identical(case):
    got = generator.CASES[case]()
    assert got == EXPECTED[case], (
        f"gnn golden case {case!r} diverged — the graph policy or PPO no "
        "longer reproduces its pinned numerics bit-for-bit; if the change "
        "is intentional, regenerate and document it"
    )
    assert generator.serialize({case: got}) == generator.serialize(
        {case: EXPECTED[case]}
    )
