"""Fig. 9: the trace-driven experiments (Sec. V-C).

Fig. 9(a)/(b) — workload characterization of the 99-job production trace
(task-count and runtime CDFs per stage).

Fig. 9(c) — CDF of the per-job *reduction in job duration*
``(makespan_Graphene - makespan_Spear) / makespan_Graphene``.  Published
result: Spear is no worse than Graphene on ~90% of jobs and up to ~20%
better; Spear runs with a small budget (100 initial / 50 minimum) here.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import EnvConfig, MctsConfig
from ..core.spear import SpearScheduler
from ..metrics.cdf import empirical_cdf
from ..metrics.comparison import reduction_series
from ..rl.network import PolicyNetwork
from ..schedulers.registry import make_scheduler
from ..traces.job import Trace
from ..traces.stats import TraceStatistics, trace_statistics
from ..traces.synthetic import TraceConfig, generate_production_trace
from .networks import cached_network
from .reporting import format_cdf
from .scale import resolve_scale
from .tournament import TournamentResult, run_tournament

__all__ = [
    "trace_characteristics",
    "reduction_cdf",
    "reductions",
    "report",
    "build_trace",
]


def build_trace(
    paper_scale: Optional[bool] = None, seed: int = 0
) -> Trace:
    """The (synthetic) production trace at the requested scale.

    At laptop scale the job count is reduced and runtimes are compressed
    (scale 0.2) so trace makespans stay small enough for in-CI search; the
    paper scale keeps all 99 jobs at full runtimes.
    """
    scale = resolve_scale(paper_scale)
    if scale.label == "paper":
        config = TraceConfig()
    else:
        config = TraceConfig(num_jobs=scale.trace_jobs, runtime_scale=0.2)
    return generate_production_trace(config, seed=seed)


def trace_characteristics(
    paper_scale: Optional[bool] = None, seed: int = 0
) -> TraceStatistics:
    """Fig. 9(a)/(b): characterize the trace workload."""
    return trace_statistics(build_trace(paper_scale, seed))


def reduction_cdf(
    paper_scale: Optional[bool] = None,
    seed: int = 0,
    network: Optional[PolicyNetwork] = None,
    trace: Optional[Trace] = None,
) -> TournamentResult:
    """Fig. 9(c): schedule every trace job with Spear and Graphene.

    Spear uses the trace budget of Sec. V-C (100/50 at paper scale).
    """
    scale = resolve_scale(paper_scale)
    env_config = EnvConfig(process_until_completion=True)
    if network is None:
        network = cached_network(scale, seed=seed)
    if trace is None:
        trace = build_trace(paper_scale, seed)

    spear = SpearScheduler(
        network,
        MctsConfig(
            initial_budget=scale.trace_spear_budget,
            min_budget=scale.trace_spear_min_budget,
        ),
        env_config,
        seed=seed,
    )
    return run_tournament(
        {"spear": spear, "graphene": make_scheduler("graphene", env_config)},
        [job.graph for job in trace],
        env_config,
    )


def reductions(result: TournamentResult) -> List[float]:
    """Per-job reduction in job duration of Spear over Graphene: the
    samples of the Fig. 9(c) CDF (paper: >= 0 on ~90% of jobs, up to
    ~20%)."""
    return reduction_series(result.makespans["spear"], result.makespans["graphene"])


def report(result: TournamentResult) -> str:
    """The Fig. 9(c) CDF, with the no-worse fraction and the largest
    reduction the paper quotes."""
    samples = reductions(result)
    cdf = format_cdf(empirical_cdf(samples), value_label="reduction", title="Fig 9(c)")
    no_worse = result.win_rate("spear", "graphene", strict=False)
    return (
        f"{cdf}\nno-worse fraction {no_worse:.0%}, "
        f"max reduction {max(samples):.1%}"
    )
