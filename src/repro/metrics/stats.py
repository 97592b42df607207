"""Statistical helpers for scheduler comparisons.

Single-number means hide variance; these give the comparison machinery
confidence statements:

* :func:`bootstrap_ci` — percentile bootstrap confidence interval for the
  mean of a makespan series.
* :func:`paired_permutation_test` — exact-or-sampled permutation p-value
  for a paired difference in means.
* :func:`paired_verdict` — the one win / tie / loss rule for comparing
  two arms on the same instances, at equal budget and at equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..utils.rng import SeedLike, as_generator

__all__ = [
    "PairedVerdict",
    "bootstrap_ci",
    "paired_permutation_test",
    "paired_verdict",
]

#: A call needs |mean paired difference| >= this share of the
#: reference's mean; a smaller difference is a tie however tight its CI.
VERDICT_MARGIN = 0.005
#: Coverage of the bootstrap CI that must exclude 0 for a call.
VERDICT_CONFIDENCE = 0.95
_BOOTSTRAP_SEED = 0
_PERMUTATION_SEED = 1


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: SeedLike = None,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI for the mean of ``values``.

    Args:
        values: the sample (non-empty).
        confidence: central coverage, in (0, 1).
        resamples: bootstrap iterations.
        seed: RNG for resampling.

    Returns:
        ``(low, high)`` bounds on the mean.
    """

    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = as_generator(seed)
    data = np.asarray(values, dtype=np.float64)
    indices = rng.integers(0, len(data), size=(resamples, len(data)))
    means = data[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return float(low), float(high)


def paired_permutation_test(
    ours: Sequence[float],
    baseline: Sequence[float],
    resamples: int = 5000,
    seed: SeedLike = None,
) -> float:
    """Two-sided paired permutation p-value for mean(ours) != mean(baseline).

    Signs of the per-pair differences are flipped uniformly at random;
    the p-value is the fraction of sign assignments whose |mean difference|
    reaches the observed one.  All-zero differences give p = 1.0.
    """

    if len(ours) != len(baseline) or not ours:
        raise ValueError("series must be non-empty and equally long")
    rng = as_generator(seed)
    diffs = np.asarray(ours, dtype=np.float64) - np.asarray(
        baseline, dtype=np.float64
    )
    observed = abs(diffs.mean())
    if observed == 0.0:
        return 1.0
    signs = rng.choice([-1.0, 1.0], size=(resamples, len(diffs)))
    permuted = np.abs((signs * diffs).mean(axis=1))
    # Add-one smoothing keeps the estimate conservative and never zero.
    hits = int(np.count_nonzero(permuted >= observed - 1e-12))
    return (hits + 1) / (resamples + 1)


@dataclass(frozen=True)
class PairedVerdict:
    """One arm against a reference on the same instances.

    Differences are ``arm - reference``, so a negative one is better for
    both makespan and plan wall time.
    """

    difference: float
    ci: Tuple[float, float]
    p_value: float
    #: The call on makespan: "win", "loss" or "tie" at equal budget.
    makespan: str
    wall_difference: float
    wall_ci: Tuple[float, float]
    #: The same call on plan wall time.
    wall: str

    @property
    def at_equal_cost(self) -> str:
        """Worse on one axis and not better on the other is a loss (so a
        makespan tie that costs more plan time loses); better on one and
        not worse on the other is a win; anything else is a tie."""
        calls = {self.makespan, self.wall}
        if "loss" in calls and "win" not in calls:
            return "loss"
        if "win" in calls and "loss" not in calls:
            return "win"
        return "tie"


def _call(
    ours: Sequence[float], reference: Sequence[float]
) -> Tuple[float, Tuple[float, float], str]:
    diffs = np.asarray(ours, dtype=np.float64) - np.asarray(
        reference, dtype=np.float64
    )
    mean = float(diffs.mean())
    low, high = bootstrap_ci(
        list(diffs), confidence=VERDICT_CONFIDENCE, seed=_BOOTSTRAP_SEED
    )
    margin = VERDICT_MARGIN * abs(float(np.mean(reference)))
    if high < 0.0 and mean <= -margin:
        return mean, (low, high), "win"
    if low > 0.0 and mean >= margin:
        return mean, (low, high), "loss"
    return mean, (low, high), "tie"


def paired_verdict(
    makespans: Sequence[float],
    reference_makespans: Sequence[float],
    wall_times: Sequence[float],
    reference_wall_times: Sequence[float],
) -> PairedVerdict:
    """Call an arm against a reference from paired per-instance results.

    Instance ``i`` of every series is the same (DAG, seed) pair.  On each
    axis the call is *win* (*loss*) when the bootstrap CI of the mean
    paired difference lies below (above) 0 and the difference is at least
    :data:`VERDICT_MARGIN` of the reference's mean, else *tie*.

    Raises:
        ValueError: on empty or unequally long series.
    """

    lengths = {
        len(makespans),
        len(reference_makespans),
        len(wall_times),
        len(reference_wall_times),
    }
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("series must be non-empty and equally long")
    difference, ci, makespan = _call(makespans, reference_makespans)
    wall_difference, wall_ci, wall = _call(wall_times, reference_wall_times)
    return PairedVerdict(
        difference=difference,
        ci=ci,
        p_value=paired_permutation_test(
            list(makespans), list(reference_makespans), seed=_PERMUTATION_SEED
        ),
        makespan=makespan,
        wall_difference=wall_difference,
        wall_ci=wall_ci,
        wall=wall,
    )
