"""The metrics registry: counters, gauges, histograms and series.

Metric objects are plain mutable accumulators — incrementing a counter
is one integer add, observing a histogram sample is one bisect — so the
*enabled* instrumentation cost stays small next to the spans around it
(~8 us per enabled span, DESIGN.md Sec. 9).  The registry snapshots
everything into :class:`~repro.telemetry.events.TelemetryEvent` records
when the owning pipeline flushes; series samples are additionally
emitted as they are recorded so training curves appear in a streamed
JSONL trace in order.

Histograms use *fixed* buckets (configurable bounds) and estimate
percentiles by linear interpolation inside the bucket that contains the
requested rank — the classic Prometheus-style estimator: O(1) memory per
histogram regardless of sample count, exact for the bucket edges, and
within one bucket's width everywhere else.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds: a 1-2.5-5 ladder wide enough
#: for both microsecond span durations and slot-valued JCTs.  Samples
#: above the last bound land in an implicit +inf overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.5, 5.0,
    10.0, 25.0, 50.0,
    100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0,
    100_000.0, 250_000.0, 500_000.0,
    1_000_000.0,
)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ConfigError(f"counter {self.name!r} cannot decrease")
        self.total += amount

    def snapshot(self) -> Dict[str, Any]:
        """Snapshot attributes for a ``metric`` event."""
        return {"type": "counter", "total": self.total}


class Gauge:
    """Last-value metric with running min/max and update count."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.min: float = float("inf")
        self.max: float = float("-inf")
        self.updates: int = 0

    def set(self, value: float) -> None:
        """Record a new current value."""
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def snapshot(self) -> Dict[str, Any]:
        """Snapshot attributes for a ``metric`` event."""
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min if self.updates else None,
            "max": self.max if self.updates else None,
            "updates": self.updates,
        }


class Histogram:
    """Fixed-bucket distribution with interpolated percentile estimates."""

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        chosen = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if not chosen or list(chosen) != sorted(set(chosen)):
            raise ConfigError(
                f"histogram {name!r} bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = chosen
        # counts[i] covers (bounds[i-1], bounds[i]]; the final slot is
        # the +inf overflow bucket.
        self.counts = [0] * (len(chosen) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Exact mean of every observed sample."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from buckets.

        Linear interpolation inside the containing bucket, clamped to the
        exact observed ``min`` / ``max`` so estimates never leave the
        sample range (the overflow bucket has no finite upper bound).
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError("percentile q must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                if index < len(self.bounds):
                    lower = self.bounds[index]
                continue
            if cumulative + bucket_count >= rank:
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self.max
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, fraction)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
            if index < len(self.bounds):
                lower = self.bounds[index]
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        """Snapshot attributes for a ``metric`` event."""
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(0.5),
            "p99": self.percentile(0.99),
        }


class Series:
    """Step-indexed sample sequence (training curves, sweeps)."""

    __slots__ = ("name", "steps", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.steps: List[int] = []
        self.values: List[float] = []

    def record(self, step: int, value: float) -> None:
        """Append one ``(step, value)`` sample."""
        self.steps.append(step)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.steps)

    def snapshot(self) -> Dict[str, Any]:
        """Snapshot attributes for a ``metric`` event."""
        return {
            "type": "series",
            "points": len(self.steps),
            "last_step": self.steps[-1] if self.steps else None,
            "last_value": self.values[-1] if self.values else None,
        }


class MetricsRegistry:
    """Name-keyed store of every metric a pipeline owns.

    Accessors create on first use (the common telemetry idiom), so call
    sites never pre-declare; asking for an existing name with a
    different metric type raises — silent aliasing would corrupt data.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls: type, *args: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise ConfigError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram named ``name``, created on first use."""
        if name not in self._metrics and bounds is not None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
            return metric
        return self._get(name, Histogram)

    def series(self, name: str) -> Series:
        """The series named ``name``, created on first use."""
        return self._get(name, Series)

    def all_metrics(self) -> Dict[str, Any]:
        """Every registered metric, keyed by name."""
        return dict(self._metrics)

    def snapshots(self) -> List[Tuple[str, Dict[str, Any]]]:
        """(name, snapshot attrs) for every metric, name-sorted."""
        return [
            (name, self._metrics[name].snapshot())
            for name in sorted(self._metrics)
        ]
