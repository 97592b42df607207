"""The settable surface, pinned in one table.

Every field of the configs a search or a trainer reads and every spec
key a scheduler accepts is an option that tests and benchmarks must
cover, so adding or losing one is a decision, not a side effect: it
shows up as a diff of this table.  (These pins used to be inline-Python
steps of ``.github/workflows/ci.yml`` that only CI could run.)
"""

import inspect
from dataclasses import fields

import pytest

from repro import EnvConfig, MctsConfig
from repro.config import GnnConfig, TrainingConfig
from repro.core.spear import SpearScheduler
from repro.experiments import ExperimentScale
from repro.rl.ppo import PpoTrainer
from repro.rl.reinforce import ReinforceTrainer
from repro.schedulers.registry import scheduler_options

CONFIG_FIELDS = {
    MctsConfig: (
        "exploration_scale initial_budget min_budget rollout_batch "
        "use_budget_decay use_expansion_filters use_max_value_ucb"
    ),
    EnvConfig: "cluster include_graph_features max_ready process_until_completion",
    GnnConfig: "global_hidden head_hidden hidden_size rounds",
    TrainingConfig: (
        "batch_size entropy_bonus epochs eps example_num_tasks gae_lambda gamma "
        "learning_rate max_episode_steps max_grad_norm normalize_advantages "
        "num_examples ppo_clip ppo_epochs ppo_minibatch rho rollouts_per_example "
        "seed supervised_epochs value_epochs value_learning_rate"
    ),
    ExperimentScale: (
        "fig8_budget_divisor grid_budgets grid_sizes label num_dags num_tasks "
        "spear_budget spear_min_budget supervised_epochs sweep_budgets "
        "sweep_min_budget sweep_num_dags trace_jobs trace_spear_budget "
        "trace_spear_min_budget train_epochs train_examples train_rollouts "
        "train_tasks"
    ),
}

SCHEDULER_OPTIONS = {
    "cp": "",
    "fifo": "",
    "graphene": "",
    "heft": "",
    "lpt": "",
    "random": "",
    "sjf": "",
    "tetris": "",
    "mcts": "budget min_budget seed",
    "optimal": "max_nodes",
    "spear": "budget min_budget network rollout_mode seed",
}

#: How Spear and the trainers evaluate their network (the per-plan and
#: per-rollout-group memo, the fused playout) is the design, not a
#: choice: nothing settable may name it.
MECHANISM_WORDS = ("memo", "cache", "playout", "fused")


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields(config):
    assert {f.name for f in fields(config)} == set(CONFIG_FIELDS[config].split())


def test_scheduler_option_keys():
    options = {name: sorted(keys) for name, keys in scheduler_options().items()}
    assert options == {
        name: sorted(keys.split()) for name, keys in SCHEDULER_OPTIONS.items()
    }


def test_no_option_names_a_mechanism():
    names = (
        SCHEDULER_OPTIONS["spear"].split()
        + [name for spec in CONFIG_FIELDS.values() for name in spec.split()]
        + [
            name
            for cls in (SpearScheduler, ReinforceTrainer, PpoTrainer)
            for name in inspect.signature(cls).parameters
        ]
    )
    assert not [n for n in names if any(w in n.lower() for w in MECHANISM_WORDS)]
