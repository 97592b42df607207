"""Experiment harness: one module per table/figure of the paper.

Every figure schedules its DAGs through one loop,
:func:`~repro.experiments.tournament.run_tournament`, and returns its
:class:`TournamentResult` (or a dict of them keyed by the figure's axis);
each module's ``report`` renders what the figure plots.  Benchmarks,
tests, examples and the CLI share these entry points; DESIGN.md Sec. 4
indexes them by paper figure.

Default parameters are laptop-scale; set ``REPRO_PAPER_SCALE=1`` (or pass
``paper_scale=True``) to run the published configuration.
"""

from .scale import ExperimentScale, resolve_scale
from .networks import cached_network
from .reporting import format_table, format_cdf
from .tournament import TournamentResult, run_tournament
from .fig6 import makespan_comparison
from .fig7 import budget_sweep
from .fig8 import budget_reduction, learning_curve
from .fig9 import trace_characteristics, reduction_cdf
from .table1 import runtime_grid
from .ablations import run_ablation, feature_ablation, exploration_sensitivity, ABLATIONS
from .diversity import diversity_study, workload_families
from .generalization import generalization_study

__all__ = [
    "ExperimentScale",
    "resolve_scale",
    "cached_network",
    "format_table",
    "format_cdf",
    "makespan_comparison",
    "budget_sweep",
    "budget_reduction",
    "learning_curve",
    "trace_characteristics",
    "reduction_cdf",
    "runtime_grid",
    "run_ablation",
    "feature_ablation",
    "exploration_sensitivity",
    "ABLATIONS",
    "TournamentResult",
    "run_tournament",
    "diversity_study",
    "workload_families",
    "generalization_study",
]
