"""Experiment harness: one module per table/figure of the paper.

Every experiment is a plain function returning a dataclass of results, so
benchmarks, tests, examples and the CLI all share the same entry points:

==========  =========================================================
Paper item  Harness entry point
==========  =========================================================
Fig. 3      ``repro.dag.motivating_example`` (+ tests/benchmarks)
Fig. 6(a)   :func:`repro.experiments.fig6.makespan_comparison`
Fig. 6(b)   :func:`repro.experiments.fig6.runtime_comparison`
Fig. 7(a,b) :func:`repro.experiments.fig7.budget_sweep`
Table I     :func:`repro.experiments.table1.runtime_grid`
Fig. 8(a)   :func:`repro.experiments.fig8.budget_reduction`
Fig. 8(b)   :func:`repro.experiments.fig8.learning_curve`
Fig. 9(a,b) :func:`repro.experiments.fig9.trace_characteristics`
Fig. 9(c)   :func:`repro.experiments.fig9.reduction_cdf`
Ablations   :mod:`repro.experiments.ablations`
==========  =========================================================

Default parameters are laptop-scale; set ``REPRO_PAPER_SCALE=1`` (or pass
``paper_scale=True``) to run the published configuration.
"""

from .scale import ExperimentScale, resolve_scale
from .networks import cached_network
from .reporting import format_table, format_cdf
from .fig6 import makespan_comparison, runtime_comparison
from .fig7 import budget_sweep
from .fig8 import budget_reduction, learning_curve
from .fig9 import trace_characteristics, reduction_cdf
from .table1 import runtime_grid
from .ablations import run_ablation, feature_ablation, exploration_sensitivity, ABLATIONS
from .tournament import TournamentResult, run_tournament
from .diversity import DiversityResult, diversity_study, workload_families
from .generalization import GeneralizationResult, generalization_study

__all__ = [
    "ExperimentScale",
    "resolve_scale",
    "cached_network",
    "format_table",
    "format_cdf",
    "makespan_comparison",
    "runtime_comparison",
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
    "DiversityResult",
    "diversity_study",
    "workload_families",
    "GeneralizationResult",
    "generalization_study",
]
