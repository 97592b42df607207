"""Random-number-generator plumbing.

Every stochastic component in the library accepts either a seed or a
:class:`numpy.random.Generator`.  These helpers normalize that input and
derive independent child streams, so that experiments are reproducible
bit-for-bit from a single integer seed while components never share a
stream accidentally.

:func:`bounded_draw` serves the random rollout loop, which draws tens of
thousands of bounded integers per plan one at a time: it makes exactly
the draws ``Generator.integers(0, n)`` makes, straight from the bit
generator's native ``next_uint32``, without NumPy's per-call argument
handling.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Union

import numpy as np

from ..errors import ConfigError

SeedLike = Union[None, int, np.random.Generator]

__all__ = ["as_generator", "spawn", "derive_seed", "bounded_draw"]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh OS entropy), an ``int`` seed, or an existing
    generator (returned unchanged, *not* copied).

    Raises:
        ConfigError: for a negative integer seed (NumPy's own error is a
            bare ``ValueError`` deep inside whatever drew first).
    """

    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigError("seed must be >= 0")
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` statistically independent children.

    The parent stream is advanced once per child, so repeated calls yield
    fresh families.  Children are independent of each other and of the
    parent's subsequent output.
    """

    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(rng: np.random.Generator) -> int:
    """Draw a fresh integer seed from ``rng`` (for subprocess hand-off)."""

    return int(rng.integers(0, 2**63 - 1, dtype=np.int64))


def bounded_draw(rng: np.random.Generator) -> Callable[[int], int]:
    """``draw(n)`` equal bit for bit to ``int(rng.integers(0, n))``.

    Lemire's bounded method over the bit generator's native
    ``next_uint32``, with its rejection loop, exactly as
    ``Generator.integers`` runs it in C for a bound below ``2**32``: the
    same 32-bit draws, so the same values, the same 32-bit half-word
    buffer (``has_uint32``) and the same final ``bit_generator.state``,
    interleaved freely with the generator's own methods.

    The domain is ``2 <= n < 2**32``.  ``integers(0, 1)`` returns 0
    without touching the generator while ``draw(1)`` would consume a
    word, so callers take a single candidate without a draw.

    No ``Generator`` lock is taken: a generator drawn from this way must
    not be shared across threads.  Each plan owns its generator, and
    ``repro serve`` plans on one executor thread.
    """

    bit_generator = rng.bit_generator
    native = bit_generator.ctypes
    next_uint32 = partial(native.next_uint32, native.state)

    def draw(n: int) -> int:
        m = next_uint32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (0x100000000 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = next_uint32() * n
        return m >> 32

    # The native functions point into the bit generator's state: hold it.
    draw.bit_generator = bit_generator  # type: ignore[attr-defined]
    return draw

