"""Properties of the single-state policy step's numeric building blocks.

``sample_index`` must be interchangeable with ``Generator.choice`` —
same index *and* same generator state afterwards — and the one-row
masked softmax must produce the bits of the batch form's row; the
network-guided rollouts' bit-identity rests on both.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ConfigError
from repro.rl.modules import masked_softmax, masked_softmax_row, sample_index


@st.composite
def masked_rows(draw):
    """(logits, mask) for one state: any width, >= 1 legal entry, with
    one-hot masks and runs of leading/trailing illegal entries likely."""
    width = draw(st.integers(1, 24))
    logits = np.asarray(
        draw(
            st.lists(
                st.floats(-30, 30, allow_nan=False), min_size=width, max_size=width
            )
        ),
        dtype=np.float64,
    )
    shape = draw(st.sampled_from(["any", "one_hot", "leading", "trailing"]))
    mask = np.zeros(width, dtype=bool)
    if shape == "one_hot":
        mask[draw(st.integers(0, width - 1))] = True
    elif shape == "leading":  # leading zeros: only a suffix is legal
        mask[draw(st.integers(0, width - 1)):] = True
    elif shape == "trailing":  # trailing zeros: only a prefix is legal
        mask[: draw(st.integers(1, width))] = True
    else:
        bits = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        mask[:] = bits
        mask[draw(st.integers(0, width - 1))] = True
    return logits, mask


@settings(max_examples=300, deadline=None)
@given(row=masked_rows(), seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 4))
def test_sample_index_is_generator_choice(row, seed, draws):
    logits, mask = row
    probs = masked_softmax(logits[None, :], mask[None, :])[0]
    ours = np.random.default_rng(seed)
    numpy = np.random.default_rng(seed)
    for _ in range(draws):
        expected = int(numpy.choice(len(probs), p=probs))
        assert sample_index(probs, ours) == expected
        assert mask[expected]
        assert ours.bit_generator.state == numpy.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(row=masked_rows(), seed=st.integers(0, 2**32 - 1))
def test_sample_index_over_legal_entries_only(row, seed):
    """Over the compressed legal entries alone it is ``choice`` too."""
    logits, mask = row
    probs = masked_softmax(logits[None, :], mask[None, :])[0][mask]
    ours = np.random.default_rng(seed)
    numpy = np.random.default_rng(seed)
    assert sample_index(probs, ours) == int(numpy.choice(len(probs), p=probs))
    assert ours.bit_generator.state == numpy.bit_generator.state


@pytest.mark.parametrize(
    "probs",
    [
        [0.5, np.nan, 0.5],
        [np.nan, 1.0],
        [1.0, np.nan],
        [np.inf, 0.0],
        [0.0, 0.0, 0.0],
    ],
)
def test_sample_index_rejects_non_finite_rows(probs):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="finite"):
        sample_index(np.asarray(probs, dtype=np.float64), rng)
    assert rng.bit_generator.state == before  # nothing was drawn


@settings(max_examples=300, deadline=None)
@given(row=masked_rows())
def test_row_softmax_has_the_batch_forms_bits(row):
    logits, mask = row
    expected = masked_softmax(logits[None, :], mask[None, :])[0]
    before = logits.copy()
    got = masked_softmax_row(logits, mask)
    assert got.tobytes() == expected.tobytes()
    assert np.array_equal(logits, before)  # the caller's logits survive


def test_row_softmax_errors():
    with pytest.raises(ConfigError, match="no legal action"):
        masked_softmax_row(np.zeros(4), np.zeros(4, dtype=bool))
    with pytest.raises(ConfigError, match="shape"):
        masked_softmax_row(np.zeros(4), np.ones(3, dtype=bool))
