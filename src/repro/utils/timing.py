"""Wall-clock measurement helpers used by the runtime experiments.

Table I and Fig. 6(b) in the paper report scheduler runtimes; the harness
measures them with :class:`Stopwatch`, which is also usable as a context
manager.
"""

from __future__ import annotations

import time
from typing import Any

__all__ = ["Stopwatch"]


class Stopwatch:
    """Accumulating wall-clock stopwatch based on ``time.perf_counter``.

    Example:
        >>> watch = Stopwatch()
        >>> with watch:
        ...     sum(range(10))
        45
        >>> watch.elapsed >= 0.0
        True
    """

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._started_at: float | None = None

    @property
    def elapsed(self) -> float:
        """Total accumulated seconds (including a currently running span)."""
        total = self._elapsed
        if self._started_at is not None:
            total += time.perf_counter() - self._started_at
        return total

    @property
    def running(self) -> bool:
        """Whether a span is currently open."""
        return self._started_at is not None

    def start(self) -> "Stopwatch":
        """Open a timing span.  Raises if one is already open."""
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Close the current span and return total elapsed seconds."""
        if self._started_at is None:
            raise RuntimeError("stopwatch is not running")
        self._elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self._elapsed

    def reset(self) -> None:
        """Zero the accumulator and discard any open span."""
        self._elapsed = 0.0
        self._started_at = None

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
