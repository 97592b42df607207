"""Golden experiment makespans: every figure's arms pinned per instance.

The committed ``experiments_golden.json`` holds, at the micro scale of
``tests/integration/test_experiments_smoke.py`` (seed 0, a fresh network
cache), the per-arm, per-instance makespans of

* ``fig6a``, ``fig8a`` and ``fig9c`` — every scheduler on every DAG / job;
* ``fig7`` — MCTS per budget, plus the Tetris mean and the win rate per
  budget the figure reports;
* ``table1`` — MCTS per (graph size, budget) cell;
* ``fig8b`` — the epoch means of a two-epoch curve and the Tetris and SJF
  reference lines;
* ``ablation/<name>`` — the four :data:`ABLATIONS`, the exploration-scale
  sweep and the graph-feature ablation;
* ``diversity`` — every scheduler on every structured family;
* ``generalization`` — the frozen policies and heuristics at 2x the
  training size (two epochs);
* ``compare`` — ``repro compare`` with its default flags.

At 10-task DAGs most arms tie, so the search-driven cases are pinned a
second time under ``n30/`` on five 30-task DAGs (the laptop workload at
micro budgets), where a search that lost or reset its random stream
between plans changes makespans.  Wall times are not pinned.

It was generated at the last commit whose figures each spelled out their
own plan -> validate -> append loop (and whose scale still carried
separate, equal MCTS budget fields): running every figure through one
tournament must change no makespan.

Regenerate (only when an intentional behaviour change lands) with::

    PYTHONPATH=src python tests/data/make_experiments_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "experiments_golden.json"

ABLATION_NAMES = (
    "expansion-filters", "budget-decay", "max-value-ucb", "guided-rollout",
)
SEARCH_CASES = (
    "fig6a", "fig7", "table1", "fig8a",
    *(f"ablation/{name}" for name in ABLATION_NAMES),
    "ablation/exploration-scale",
)
CASES = (
    *SEARCH_CASES, "fig8b", "fig9c", "ablation/graph-features",
    "diversity", "generalization", "compare",
    *(f"n30/{case}" for case in SEARCH_CASES),
)


def micro(wide: bool = False):
    """The smoke test's micro scale; ``wide``: 5 x 30-task DAGs."""
    from dataclasses import replace

    from repro.experiments.scale import ExperimentScale

    scale = ExperimentScale(
        label="micro",
        num_dags=2,
        num_tasks=10,
        spear_budget=6,
        spear_min_budget=3,
        sweep_budgets=(3, 6),
        sweep_num_dags=2,
        sweep_min_budget=2,
        grid_sizes=(8,),
        grid_budgets=(3, 6),
        fig8_budget_divisor=2,
        train_examples=2,
        train_tasks=6,
        train_epochs=1,
        train_rollouts=2,
        supervised_epochs=3,
        trace_jobs=2,
        trace_spear_budget=4,
        trace_spear_min_budget=2,
    )
    if wide:
        return replace(
            scale, label="micro-n30", num_dags=5, num_tasks=30,
            sweep_num_dags=5, grid_sizes=(20,),
        )
    return scale


@contextlib.contextmanager
def micro_scale(wide: bool = False):
    """Run at :func:`micro` with an empty, throwaway network cache."""
    import repro.experiments.scale as scale_module
    from repro.experiments import networks

    saved_scale = scale_module.LAPTOP
    saved_memory = dict(networks._MEMORY_CACHE)
    saved_env = {k: os.environ.get(k) for k in ("REPRO_CACHE_DIR", "REPRO_PAPER_SCALE")}
    with tempfile.TemporaryDirectory() as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        os.environ.pop("REPRO_PAPER_SCALE", None)
        scale_module.LAPTOP = micro(wide)
        networks._MEMORY_CACHE.clear()
        try:
            yield
        finally:
            scale_module.LAPTOP = saved_scale
            networks._MEMORY_CACHE.clear()
            networks._MEMORY_CACHE.update(saved_memory)
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


def compare_makespans() -> dict:
    """The makespans of ``repro compare``'s default run."""
    from repro.cli import main
    from repro.experiments import tournament

    results = []
    run = tournament.run_tournament

    def recording(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    tournament.run_tournament = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compare"]) == 0
    finally:
        tournament.run_tournament = run
    (result,) = results
    return result.makespans


def _case(case_id: str):
    from repro import experiments as ex

    if case_id == "fig6a":
        return ex.makespan_comparison(seed=0).makespans
    if case_id == "fig7":
        result = ex.budget_sweep(seed=0)
        arms = [name for name in result.makespans if name != "tetris"]
        return {
            "mcts": {arm.partition("@")[2]: result.makespans[arm] for arm in arms},
            "tetris_mean": result.mean("tetris"),
            "win_rate": {
                arm.partition("@")[2]: result.win_rate(arm, "tetris") for arm in arms
            },
        }
    if case_id == "table1":
        return {
            f"{size}x{arm.partition('@')[2]}": makespans[0]
            for size, result in ex.runtime_grid(seed=0).items()
            for arm, makespans in result.makespans.items()
        }
    if case_id == "fig8a":
        return ex.budget_reduction(seed=0).makespans
    if case_id == "fig8b":
        curve = ex.learning_curve(seed=0, epochs=2)
        return {
            "epoch_means": [mean for _, mean in curve.curve()],
            "tetris": curve.tetris_mean,
            "sjf": curve.sjf_mean,
        }
    if case_id == "fig9c":
        return ex.reduction_cdf(seed=0).makespans
    if case_id == "ablation/exploration-scale":
        return ex.exploration_sensitivity(seed=0).makespans
    if case_id == "ablation/graph-features":
        return ex.feature_ablation(seed=0).makespans
    if case_id.startswith("ablation/"):
        return ex.run_ablation(case_id.split("/", 1)[1], seed=0).makespans
    if case_id == "diversity":
        return {
            family: {name: m for name, (m,) in result.makespans.items()}
            for family, result in ex.diversity_study(seed=0).items()
        }
    if case_id == "generalization":
        study = ex.generalization_study(
            seed=0, train_tasks=8, eval_factors=(2,), num_dags=2, epochs=2
        )
        return {str(size): result.makespans for size, result in study.items()}
    if case_id == "compare":
        return compare_makespans()
    raise KeyError(case_id)


def compute_case(case_id: str):
    wide = case_id.startswith("n30/")
    with micro_scale(wide):
        return _case(case_id[len("n30/"):] if wide else case_id)


def compute_golden() -> dict:
    return {case_id: compute_case(case_id) for case_id in CASES}


def dumps(golden: dict) -> str:
    """One case per line, so the file diffs by case."""
    lines = [
        f" {json.dumps(case_id)}: "
        f"{json.dumps(golden[case_id], sort_keys=True, separators=(',', ':'))}"
        for case_id in sorted(golden)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> None:
    GOLDEN_PATH.write_text(dumps(compute_golden()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
