"""Schedules, validity invariants and cross-scheduler comparison metrics."""

from .schedule import ScheduledTask, Schedule, validate_schedule
from .comparison import (
    ComparisonRow,
    compare_makespans,
    win_rate,
    reduction,
    reduction_series,
)
from .cdf import empirical_cdf, percentile
from .export import (
    schedule_to_dict,
    schedule_from_dict,
    save_schedule,
    load_schedule,
    to_chrome_trace,
)
from .stats import (
    PairedVerdict,
    bootstrap_ci,
    paired_permutation_test,
    paired_verdict,
)

__all__ = [
    "ScheduledTask",
    "Schedule",
    "validate_schedule",
    "ComparisonRow",
    "compare_makespans",
    "win_rate",
    "reduction",
    "reduction_series",
    "empirical_cdf",
    "percentile",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "to_chrome_trace",
    "bootstrap_ci",
    "paired_permutation_test",
    "PairedVerdict",
    "paired_verdict",
]
