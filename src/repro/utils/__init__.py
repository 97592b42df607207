"""Small shared utilities: RNG plumbing and timing."""

from .rng import as_generator, spawn, derive_seed
from .timing import Stopwatch

__all__ = [
    "as_generator",
    "spawn",
    "derive_seed",
    "Stopwatch",
]
