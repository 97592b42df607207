"""The random rollout's native draws equal NumPy's own, bit for bit.

:func:`repro.utils.rng.bounded_draw` runs Lemire's bounded method over a
bit generator's native ``next_uint32``.  It must make exactly the draws
``Generator.integers(0, n)`` makes — the same values and the same final
``bit_generator.state`` — for every NumPy bit generator.  The sequences interleave native draws with the generator's
own ``random``, ``integers(size=k)`` and ``shuffle``, so the 32-bit
half-word buffer the two share (``has_uint32``) must be respected.
"""

import gc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.utils.rng import bounded_draw

BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]

#: Bounds whose rejection threshold ``(2**32 - n) % n`` is large, so the
#: rejection loop runs on a large share of draws.
REJECTION_HEAVY = [2**31 + 1, 3 * 2**30, 2**32 - 1]

BOUNDS = st.one_of(
    st.integers(2, 2**32 - 1),
    st.sampled_from(REJECTION_HEAVY),
    st.integers(2, 40),  # the window sizes the playouts draw over
)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("draw"), BOUNDS),
        st.tuples(st.just("random"), st.just(0)),
        st.tuples(st.just("integers"), st.integers(1, 5)),
        st.tuples(st.just("shuffle"), st.integers(2, 6)),
    ),
    max_size=60,
)


def same_state(a, b):
    """``bit_generator.state`` dicts compared entry by entry (MT19937 and
    Philox hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def twins(bit_generator, seed):
    return (
        np.random.Generator(bit_generator(seed)),
        np.random.Generator(bit_generator(seed)),
    )


@settings(max_examples=150, deadline=None)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    operations=OPERATIONS,
)
def test_native_draws_interleave_with_generator_methods(
    bit_generator, seed, operations
):
    native, reference = twins(bit_generator, seed)
    draw = bounded_draw(native)
    for operation, arg in operations:
        if operation == "draw":
            assert draw(arg) == int(reference.integers(0, arg))
        elif operation == "random":
            assert native.random() == reference.random()
        elif operation == "integers":
            assert np.array_equal(
                native.integers(0, 1000, size=arg),
                reference.integers(0, 1000, size=arg),
            )
        else:
            left, right = list(range(arg)), list(range(arg))
            native.shuffle(left)
            reference.shuffle(right)
            assert left == right
        assert same_state(native.bit_generator.state, reference.bit_generator.state)


@pytest.mark.parametrize("bound", REJECTION_HEAVY)
@pytest.mark.parametrize("buffered", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_rejection_heavy_bounds(bit_generator, buffered, bound):
    native, reference = twins(bit_generator, 2024)
    if buffered:  # start with half of a 64-bit output in the buffer
        native.integers(0, 5)
        reference.integers(0, 5)
    draw = bounded_draw(native)
    assert [draw(bound) for _ in range(200)] == [
        int(reference.integers(0, bound)) for _ in range(200)
    ]
    assert same_state(native.bit_generator.state, reference.bit_generator.state)


def test_draw_keeps_its_generator_alive():
    """The native functions point into the bit generator's state; the
    draw holds the generator, so dropping every other reference to it
    cannot leave the draw reading freed memory."""
    draw = bounded_draw(np.random.default_rng(11))
    gc.collect()
    reference = np.random.default_rng(11)
    assert [draw(10) for _ in range(20)] == [
        int(reference.integers(0, 10)) for _ in range(20)
    ]
