"""Microbenchmark runner and the regression gate over committed baselines.

Every benchmark's ``setup`` builds a thunk over fixed inputs; ``WARMUP``
invocations are discarded, then ``REPEATS`` are timed one by one with
``time.perf_counter`` and folded into per-operation microseconds.

``benchmarks/baselines.json`` holds one row per benchmark: the recorded
``mean_us`` and a ``budget_us`` of ``HEADROOM`` times it.  A run
regresses when a mean exceeds its budget: a ceiling that catches
order-of-magnitude regressions (a dropped cache, a quadratic loop), not
machine noise.  Rows and suite must name the same benchmarks, so a
rename cannot drop a benchmark out of the gate.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigError

__all__ = [
    "BaselineComparison",
    "BenchmarkSpec",
    "BenchResult",
    "BenchRun",
    "compare_to_baselines",
    "load_baselines",
    "machine_metadata",
    "run_benchmarks",
    "write_baselines",
]

#: Timed invocations per benchmark.
REPEATS = 30
#: Untimed invocations before measurement starts.
WARMUP = 3
#: Budget multiplier applied to measured means by ``write_baselines``.
HEADROOM = 2.5


@dataclass(frozen=True)
class BenchmarkSpec:
    """One registered microbenchmark.

    Attributes:
        name: unique dotted identifier, e.g. ``"observation.build"``.
        setup: called once per run; returns the thunk to time.  Input
            construction belongs here, only the measured call in the thunk.
        inner_ops: operations one thunk invocation performs; an ``ops``
            attribute on the returned thunk overrides it when the count
            depends on the generated inputs.
    """

    name: str
    setup: Callable[[], Callable[[], Any]]
    inner_ops: int = 1


@dataclass(frozen=True)
class BenchResult:
    """Summary statistics of one benchmark's timed invocations."""

    name: str
    inner_ops: int
    repeats: int
    mean_us: float
    median_us: float
    stdev_us: float
    min_us: float
    max_us: float

    @classmethod
    def from_samples(
        cls, spec: BenchmarkSpec, samples_s: List[float], inner_ops: int
    ) -> "BenchResult":
        """Fold raw per-invocation seconds into per-op microseconds."""
        per_op_us = [s / inner_ops * 1e6 for s in samples_s]
        return cls(
            name=spec.name,
            inner_ops=inner_ops,
            repeats=len(per_op_us),
            mean_us=statistics.fmean(per_op_us),
            median_us=statistics.median(per_op_us),
            stdev_us=statistics.stdev(per_op_us) if len(per_op_us) > 1 else 0.0,
            min_us=min(per_op_us),
            max_us=max(per_op_us),
        )


@dataclass
class BenchRun:
    """All results of one runner invocation plus machine metadata."""

    meta: Dict[str, Any]
    results: List[BenchResult] = field(default_factory=list)

    def result(self, name: str) -> BenchResult:
        """Look up one result by benchmark name."""
        for candidate in self.results:
            if candidate.name == name:
                return candidate
        raise ConfigError(f"no benchmark result named {name!r}")


def machine_metadata() -> Dict[str, Any]:
    """Reproducibility metadata recorded with every baseline."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def run_benchmarks(
    specs: List[BenchmarkSpec],
    progress: Optional[Callable[[str], None]] = None,
) -> BenchRun:
    """Execute ``specs`` in order; ``progress`` gets one line per result."""
    run = BenchRun(meta=machine_metadata())
    for spec in specs:
        thunk = spec.setup()
        inner_ops = getattr(thunk, "ops", spec.inner_ops)
        for _ in range(WARMUP):
            thunk()
        samples: List[float] = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            thunk()
            samples.append(time.perf_counter() - start)
        result = BenchResult.from_samples(spec, samples, inner_ops)
        run.results.append(result)
        if progress is not None:
            progress(
                f"{result.name:<32} {result.mean_us:>10.2f} us/op "
                f"(median {result.median_us:.2f}, n={result.repeats})"
            )
    return run


def _is_positive_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def load_baselines(path: str | Path) -> Dict[str, float]:
    """Read a baselines file; returns ``{benchmark_name: budget_us}``.

    Raises:
        ConfigError: on unreadable or malformed input, including a
            ``mean_us`` or ``budget_us`` that is not a finite positive
            number (``true``, ``NaN`` and ``Infinity`` are all rejected).
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load baselines from {path}: {exc}") from exc
    rows = payload.get("benchmarks") if isinstance(payload, dict) else None
    if not isinstance(rows, dict):
        raise ConfigError(f"baselines file {path} must map 'benchmarks' to rows")
    budgets: Dict[str, float] = {}
    for name, row in rows.items():
        if not isinstance(row, dict) or not all(
            _is_positive_number(row.get(key)) for key in ("mean_us", "budget_us")
        ):
            raise ConfigError(
                f"baselines row {name!r} in {path} needs finite positive "
                f"'mean_us' and 'budget_us' numbers, got {row!r}"
            )
        budgets[name] = float(row["budget_us"])
    return budgets


def write_baselines(run: BenchRun, path: str | Path) -> Path:
    """Write one row per result: its mean and a ``HEADROOM`` x budget."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "meta": {
            **run.meta,
            "headroom": HEADROOM,
            "note": (
                "budget_us is mean_us times the headroom factor; "
                "regenerate with: repro bench --baseline "
                "benchmarks/baselines.json --update-baselines"
            ),
        },
        "benchmarks": {
            result.name: {
                "mean_us": round(result.mean_us, 2),
                "budget_us": round(result.mean_us * HEADROOM, 2),
            }
            for result in sorted(run.results, key=lambda r: r.name)
        },
    }
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return target


@dataclass(frozen=True)
class BaselineComparison:
    """Verdict of one benchmark against its committed budget."""

    name: str
    mean_us: float
    budget_us: float
    ratio: float
    ok: bool

    def line(self) -> str:
        """One human-readable report row."""
        verdict = "ok" if self.ok else "REGRESSION"
        return (
            f"{self.name:<32} {self.mean_us:>10.2f} us vs budget "
            f"{self.budget_us:.2f} us ({self.ratio:.2f}x)  {verdict}"
        )


def compare_to_baselines(
    run: BenchRun, baselines: Dict[str, float]
) -> List[BaselineComparison]:
    """Check every result against its budget; fails when ``mean > budget``.

    Raises:
        ConfigError: if a result has no budget or a budget names no result.
    """
    measured = {result.name for result in run.results}
    missing = sorted(measured - set(baselines))
    stale = sorted(set(baselines) - measured)
    if missing or stale:
        raise ConfigError(
            "baselines do not match the suite: "
            f"no budget for {missing}, budget for no benchmark {stale}"
        )
    comparisons: List[BaselineComparison] = []
    for result in run.results:
        budget = baselines[result.name]
        ratio = result.mean_us / budget if budget > 0 else float("inf")
        ok = result.mean_us <= budget
        comparisons.append(
            BaselineComparison(result.name, result.mean_us, budget, ratio, ok)
        )
    return comparisons
