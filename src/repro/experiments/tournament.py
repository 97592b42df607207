"""The one scheduling loop of the experiments: round-robin tournaments.

Every figure of Sec. V schedules a batch of DAGs with a set of arms and
compares them DAG by DAG ("Spear outperforms Graphene in 90% of the
cases").  :func:`run_tournament` is that protocol — the only place in
:mod:`repro.experiments` that plans and validates a schedule — and
:class:`TournamentResult` is every figure's result: per-arm, per-job
makespans and wall times, mean makespans, win rates, and each arm's
:func:`~repro.metrics.stats.paired_verdict` against a reference.  ``repro
compare`` runs one over random DAGs to answer "which scheduler should I
run on my workload?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..config import EnvConfig
from ..dag.graph import TaskGraph
from ..errors import ConfigError
from ..metrics.comparison import ComparisonRow, compare_makespans, win_rate
from ..metrics.schedule import validate_schedule
from ..metrics.stats import PairedVerdict, paired_verdict
from ..schedulers.base import Scheduler, ScheduleRequest
from ..telemetry import runtime as _telemetry
from .reporting import format_table

__all__ = ["TournamentResult", "run_tournament", "summary_table"]


@dataclass
class TournamentResult:
    """All pairwise outcomes of one tournament."""

    makespans: Dict[str, List[int]]
    wall_times: Dict[str, List[float]]
    reference: str

    def ranking(self) -> List[ComparisonRow]:
        """Schedulers ordered by mean makespan (best first)."""
        return compare_makespans(self.makespans)

    def mean(self, name: str) -> float:
        """Mean makespan of ``name`` over the jobs."""
        values = self.makespans[name]
        return sum(values) / len(values)

    def win_rate(self, a: str, b: str, strict: bool = True) -> float:
        """Fraction of jobs where ``a`` beats ``b`` (ties count when not
        ``strict``: "no worse than")."""
        return win_rate(self.makespans[a], self.makespans[b], strict=strict)

    def verdict(self, name: str) -> PairedVerdict:
        """``name`` against the reference scheduler, job by job."""
        ref = self.reference
        return paired_verdict(
            self.makespans[name],
            self.makespans[ref],
            self.wall_times[name],
            self.wall_times[ref],
        )

    def report(self) -> str:
        """Ranking table with per-scheduler win rate and verdict against
        the reference."""
        rows = []
        for row in self.ranking():
            if row.scheduler == self.reference:
                rows.append((row.scheduler, row.mean, row.median) + ("-",) * 5)
                continue
            v = self.verdict(row.scheduler)
            win = self.win_rate(row.scheduler, self.reference)
            rows.append((
                row.scheduler,
                row.mean,
                row.median,
                f"{win:.0%}",
                f"{v.difference:+.1f} [{v.ci[0]:+.1f}, {v.ci[1]:+.1f}]",
                f"{v.p_value:.3f}",
                v.makespan,
                v.at_equal_cost,
            ))
        return format_table(
            [
                "scheduler",
                "mean",
                "median",
                f"beats {self.reference}",
                "diff [95% CI]",
                "p (perm)",
                "verdict",
                "at equal cost",
            ],
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
        reference: baseline for win rates and verdicts; defaults to
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


def summary_table(result: TournamentResult, title: str) -> str:
    """Mean, median, best and worst makespan per arm, best mean first,
    under ``title`` and the job count."""
    ranking = result.ranking()
    rows = [(r.scheduler, r.mean, r.median, r.best, r.worst) for r in ranking]
    return format_table(
        ["scheduler", "mean", "median", "best", "worst"],
        rows,
        title=f"{title}, {ranking[0].num_jobs} DAGs",
    )
