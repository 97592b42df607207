"""Golden experiment makespans: every figure's arms pinned per instance.

``experiments_golden.json`` holds, at the micro scale of
``tests/integration/test_experiments_smoke.py`` (seed 0, a fresh network
cache), the per-arm, per-instance makespans of

* ``fig6a``, ``fig8a`` and ``fig9c`` — every scheduler on every DAG / job;
* ``fig7`` — MCTS per budget, plus the Tetris mean and the win rate per
  budget the figure reports;
* ``table1`` — MCTS per (graph size, budget) cell;
* ``fig8b`` — the epoch means of a two-epoch curve and the Tetris and SJF
  reference lines;
* ``ablation/<name>`` — the four :data:`ABLATION_NAMES`, the
  exploration-scale sweep and the graph-feature ablation;
* ``diversity`` — every scheduler on every structured family;
* ``generalization`` — the frozen policies and heuristics at 2x the
  training size (two epochs);
* ``compare`` — ``repro compare`` with its default flags.

At 10-task DAGs most arms tie, so the search-driven cases are pinned a
second time under ``n30/`` on five 30-task DAGs (the laptop workload at
micro budgets), where a search that lost or reset its random stream
between plans changes makespans.  Wall times are not pinned.

Cut at the last commit whose figures each spelled out their own plan ->
validate -> append loop and never regenerated: running every figure
through one tournament must change no makespan.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from dataclasses import replace
from unittest import mock

import repro.experiments.scale as scale_module
from repro import experiments as ex
from repro.cli import main
from repro.experiments import networks, tournament
from repro.experiments.scale import ExperimentScale
from tests.integration.test_experiments_smoke import MICRO

FILE = "experiments_golden.json"
LAYOUT = "one-case-per-line"
ABLATION_NAMES = (
    "expansion-filters", "budget-decay", "max-value-ucb", "guided-rollout",
)
SEARCH_CASES = (
    "fig6a", "fig7", "table1", "fig8a",
    *(f"ablation/{name}" for name in ABLATION_NAMES),
    "ablation/exploration-scale",
)
CASE_IDS = (
    *SEARCH_CASES, "fig8b", "fig9c", "ablation/graph-features",
    "diversity", "generalization", "compare",
    *(f"n30/{case}" for case in SEARCH_CASES),
)
CASES = {case: (FILE, case) for case in CASE_IDS}


def micro(wide: bool = False) -> ExperimentScale:
    """The smoke test's micro scale; ``wide``: 5 x 30-task DAGs."""
    if not wide:
        return MICRO
    return replace(
        MICRO, label="micro-n30", num_dags=5, num_tasks=30, sweep_num_dags=5,
        grid_sizes=(20,),
    )


@contextlib.contextmanager
def micro_scale(wide: bool = False):
    """Run at :func:`micro` with an empty, throwaway network cache."""
    with (
        tempfile.TemporaryDirectory() as cache,
        mock.patch.dict(os.environ, {"REPRO_CACHE_DIR": cache}),
        mock.patch.dict(networks._MEMORY_CACHE, clear=True),
        mock.patch.object(scale_module, "LAPTOP", micro(wide)),
    ):
        os.environ.pop("REPRO_PAPER_SCALE", None)
        yield


def compare_makespans() -> dict:
    """The makespans of ``repro compare``'s default run."""
    results = []
    run = tournament.run_tournament

    def recording(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    with (
        mock.patch.object(tournament, "run_tournament", recording),
        contextlib.redirect_stdout(io.StringIO()),
    ):
        assert main(["compare"]) == 0
    (result,) = results
    return result.makespans


def _case(case: str):
    if case == "fig6a":
        return ex.makespan_comparison(seed=0).makespans
    if case == "fig7":
        result = ex.budget_sweep(seed=0)
        arms = [name for name in result.makespans if name != "tetris"]
        return {
            "mcts": {arm.partition("@")[2]: result.makespans[arm] for arm in arms},
            "tetris_mean": result.mean("tetris"),
            "win_rate": {
                arm.partition("@")[2]: result.win_rate(arm, "tetris") for arm in arms
            },
        }
    if case == "table1":
        return {
            f"{size}x{arm.partition('@')[2]}": makespans[0]
            for size, result in ex.runtime_grid(seed=0).items()
            for arm, makespans in result.makespans.items()
        }
    if case == "fig8a":
        return ex.budget_reduction(seed=0).makespans
    if case == "fig8b":
        curve = ex.learning_curve(seed=0, epochs=2)
        return {
            "epoch_means": [mean for _, mean in curve.curve()],
            "tetris": curve.tetris_mean,
            "sjf": curve.sjf_mean,
        }
    if case == "fig9c":
        return ex.reduction_cdf(seed=0).makespans
    if case == "ablation/exploration-scale":
        return ex.exploration_sensitivity(seed=0).makespans
    if case == "ablation/graph-features":
        return ex.feature_ablation(seed=0).makespans
    if case.startswith("ablation/"):
        return ex.run_ablation(case.split("/", 1)[1], seed=0).makespans
    if case == "diversity":
        return {
            family: {name: m for name, (m,) in result.makespans.items()}
            for family, result in ex.diversity_study(seed=0).items()
        }
    if case == "generalization":
        study = ex.generalization_study(
            seed=0, train_tasks=8, eval_factors=(2,), num_dags=2, epochs=2
        )
        return {str(size): result.makespans for size, result in study.items()}
    if case == "compare":
        return compare_makespans()
    raise KeyError(case)


def compute(case: str):
    wide = case.startswith("n30/")
    with micro_scale(wide):
        return _case(case.removeprefix("n30/"))
