"""Round-robin scheduler tournaments with significance testing.

Beyond reproducing individual figures, a downstream user wants one
command that answers "which scheduler should I run on my workload?".
:func:`run_tournament` schedules every job with every competitor, then
reports mean makespans, pairwise win matrices, and a sign-test p-value
against the chosen reference scheduler (the paper's comparisons are
exactly pairwise win counts, e.g. "Spear outperforms Graphene in 90% of
the cases").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from scipy import stats

from ..config import EnvConfig
from ..dag.graph import TaskGraph
from ..errors import ConfigError
from ..metrics.comparison import ComparisonRow, compare_makespans, win_rate
from ..metrics.schedule import validate_schedule
from ..schedulers.base import Scheduler, ScheduleRequest
from ..telemetry import runtime as _telemetry
from .reporting import format_table

__all__ = ["TournamentResult", "run_tournament", "sign_test"]


def sign_test(ours: Sequence[int], baseline: Sequence[int]) -> float:
    """Two-sided sign-test p-value that ``ours`` and ``baseline`` differ.

    Ties are discarded (the standard sign-test convention); with no
    informative pairs the p-value is 1.0.
    """

    if len(ours) != len(baseline):
        raise ValueError("series must be equally long")
    wins = sum(1 for a, b in zip(ours, baseline) if a < b)
    losses = sum(1 for a, b in zip(ours, baseline) if a > b)
    informative = wins + losses
    if informative == 0:
        return 1.0
    return float(stats.binomtest(wins, informative, 0.5).pvalue)


@dataclass
class TournamentResult:
    """All pairwise outcomes of one tournament."""

    makespans: Dict[str, List[int]]
    wall_times: Dict[str, List[float]]
    reference: str

    def ranking(self) -> List[ComparisonRow]:
        """Schedulers ordered by mean makespan (best first)."""
        return compare_makespans(self.makespans)

    def win_matrix(self) -> Dict[Tuple[str, str], float]:
        """``(a, b) -> fraction of jobs where a strictly beats b``."""
        names = sorted(self.makespans)
        return {
            (a, b): win_rate(self.makespans[a], self.makespans[b])
            for a in names
            for b in names
            if a != b
        }

    def p_value_vs_reference(self, name: str) -> float:
        """Sign-test p-value of ``name`` against the reference scheduler."""
        return sign_test(self.makespans[name], self.makespans[self.reference])

    def report(self) -> str:
        """Ranking table with per-scheduler win rate and p-value against
        the reference."""
        rows = []
        for row in self.ranking():
            if row.scheduler == self.reference:
                win, p = "-", "-"
            else:
                win = f"{win_rate(self.makespans[row.scheduler], self.makespans[self.reference]):.0%}"
                p = f"{self.p_value_vs_reference(row.scheduler):.3f}"
            rows.append((row.scheduler, row.mean, row.median, win, p))
        return format_table(
            ["scheduler", "mean", "median", f"beats {self.reference}", "p (sign)"],
            rows,
            title=f"Tournament over {len(next(iter(self.makespans.values())))} jobs",
        )


def run_tournament(
    schedulers: Mapping[str, Scheduler],
    graphs: Sequence[TaskGraph],
    env_config: Optional[EnvConfig] = None,
    reference: Optional[str] = None,
) -> TournamentResult:
    """Schedule every graph with every scheduler; validate everything.

    Args:
        schedulers: name -> scheduler instances (reused across jobs).
        graphs: the common workload.
        env_config: capacities used for validation (defaults to the
            standard cluster).
        reference: baseline for win rates/p-values; defaults to
            ``"graphene"`` when present, else the first name.

    Raises:
        ConfigError: on empty inputs or an unknown reference.
    """

    if not schedulers or not graphs:
        raise ConfigError("need at least one scheduler and one graph")
    env_config = env_config if env_config is not None else EnvConfig()
    capacities = env_config.cluster.capacities
    if reference is None:
        reference = "graphene" if "graphene" in schedulers else next(iter(schedulers))
    if reference not in schedulers:
        raise ConfigError(f"reference {reference!r} is not a competitor")

    makespans: Dict[str, List[int]] = {name: [] for name in schedulers}
    wall_times: Dict[str, List[float]] = {name: [] for name in schedulers}
    tm = _telemetry.active()
    with tm.span(
        "tournament.run",
        competitors=len(schedulers),
        jobs=len(graphs),
        reference=reference,
    ):
        for index, graph in enumerate(graphs):
            for name, scheduler in schedulers.items():
                schedule = scheduler.plan(ScheduleRequest(graph))
                validate_schedule(schedule, graph, capacities)
                makespans[name].append(schedule.makespan)
                wall_times[name].append(schedule.wall_time)
                if tm.enabled:
                    tm.record(
                        f"tournament.makespan.{name}",
                        index,
                        float(schedule.makespan),
                    )
    return TournamentResult(
        makespans=makespans, wall_times=wall_times, reference=reference
    )
