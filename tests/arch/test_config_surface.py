"""The settable surface, pinned in one table.

Every field of the configs a search or a trainer reads and of the
request a planner is handed, every key of the four spec families
(scheduler, arrival, router, fault) and every command-line option is an
option that tests and benchmarks must cover,
so adding or losing one is a decision, not a side effect: it shows up
as a diff of this table.  (These pins used to be inline-Python
steps of ``.github/workflows/ci.yml`` that only CI could run.)
"""

import argparse
import inspect
from dataclasses import fields

import pytest

from repro import EnvConfig, MctsConfig
from repro.cli import build_parser
from repro.config import GnnConfig, TrainingConfig
from repro.core.spear import SpearScheduler
from repro.experiments import ExperimentScale
from repro.faults.plan import FAULT_SPEC_SCHEMA
from repro.federation.routing import ROUTER_SPEC_SCHEMAS
from repro.rl.ppo import PpoTrainer
from repro.rl.reinforce import ReinforceTrainer
from repro.schedulers.base import ClusterSnapshot, ScheduleRequest
from repro.schedulers.registry import scheduler_options
from repro.streaming.arrivals import ARRIVAL_SPEC_SCHEMAS

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
    ScheduleRequest: "cluster graph",
    ClusterSnapshot: "capacities",
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

#: The keys of the other spec families: arrival and router keys by kind,
#: and the fault spec, which has no kind.
SPEC_KEYS = {
    "arrival": {
        "poisson": "n rate",
        "uniform": "interarrival n",
        "trace": "interarrival mean path",
    },
    "router": {
        "round-robin": "",
        "least-load": "metric",
        "hash": "salt",
        "affinity": "spill",
    },
    "fault": (
        "backoff backoff_cap crashes fraction max_attempts noise noise_kind "
        "outage seed slowdown straggler transient"
    ),
}

#: Every subcommand's options in declaration order (which is the order
#: of its usage line): option strings, value type, default and choices.
CLI_OPTIONS = {
    "simulate": (
        "--scheduler str 'tetris'",
        "--tasks int 50",
        "--seed int 0",
        "--budget int 100",
        "--min-budget int 20",
    ),
    "schedulers": (
        "--json flag",
    ),
    "train": (
        "--epochs int 50",
        "--examples int 24",
        "--example-tasks int 15",
        "--rollouts int 8",
        "--seed int 0",
        "--out str 'spear-network.npz'",
        "--log-every int 10",
        "--algo str 'reinforce' {reinforce,ppo}",
        "--policy str 'mlp' {mlp,gnn}",
        "--grad-clip float 0.0",
        "--trace-out str None",
    ),
    "trace": (
        "--out str None",
        "--seed int 0",
        "--jobs int 99",
        "--stats flag",
    ),
    "trace summary": (
        "path str None required",
    ),
    "trace export": (
        "path str None required",
        "--out str None required",
    ),
    "trace top-spans": (
        "path str None required",
        "--limit int 10",
    ),
    "experiment": (
        "name str None {fig6a,fig6b,fig7,fig8a,fig8b,fig9ab,fig9c,table1,generalization} required",
        "--paper-scale flag",
        "--seed int 0",
        "--trace-out str None",
    ),
    "ablation": (
        "name str None required",
        "--paper-scale flag",
        "--seed int 0",
    ),
    "motivating": (),
    "compare": (
        "--schedulers str 'tetris,sjf,cp,graphene,heft'",
        "--jobs int 5",
        "--tasks int 30",
        "--seed int 0",
        "--budget int 50",
        "--min-budget int 10",
        "--reference str None",
        "--trace-out str None",
    ),
    "online": (
        "--jobs int 10",
        "--seed int 0",
        "--mean-interarrival float 25.0",
        "--runtime-scale float 0.2",
        "--rankers str 'fifo,sjf,cp,tetris'",
        "--faults str None",
        "--fault-horizon int None",
        "--reschedule str None",
        "--fallback str None",
        "--replan-budget float None",
        "--verify-executed flag",
        "--check-recoveries flag",
        "--trace-out str None",
    ),
    "stream": (
        "--arrival str 'poisson:rate=0.05,n=200'",
        "--seed int 0",
        "--ranker str 'sjf'",
        "--tasks int 8",
        "--max-concurrent int None",
        "--max-queue int None",
        "--horizon int None",
        "--faults str None",
        "--fault-horizon int None",
        "--reschedule str None",
        "--fallback str None",
        "--replan-budget float None",
        "--metrics-out str None",
        "--verify-executed flag",
        "--gate-p99 float None",
        "--trace-out str None",
    ),
    "federate": (
        "--shards int 2",
        "--router str 'least-load'",
        "--steal-threshold int None",
        "--scheduler append None",
        "--arrival str 'poisson:rate=0.05,n=200'",
        "--seed int 0",
        "--ranker str 'sjf'",
        "--tasks int 8",
        "--max-concurrent int None",
        "--max-queue int None",
        "--horizon int None",
        "--faults str None",
        "--fault-horizon int None",
        "--metrics-out str None",
        "--gate-p99 float None",
        "--compare-global flag",
        "--trace-out str None",
    ),
    "serve": (
        "--scheduler str 'tetris'",
        "--host str '127.0.0.1'",
        "--port int 0",
        "--batch-max int 16",
        "--smoke flag",
        "--requests int 3",
        "--seed int 0",
        "--frames-out str None",
    ),
    "verify": (
        "schedule str None required",
        "--graph str None required",
        "--capacities str None",
        "--json flag",
    ),
    "bench": (
        "--baseline str None",
        "--update-baselines flag",
    ),
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


@pytest.mark.parametrize("family", SPEC_KEYS)
def test_spec_keys(family):
    keys = {
        "arrival": {kind: sorted(schema) for kind, schema in ARRIVAL_SPEC_SCHEMAS.items()},
        "router": {kind: sorted(schema) for kind, schema in ROUTER_SPEC_SCHEMAS.items()},
        "fault": sorted(FAULT_SPEC_SCHEMA),
    }
    pinned = SPEC_KEYS[family]
    if isinstance(pinned, str):
        assert keys[family] == sorted(pinned.split())
    else:
        assert keys[family] == {kind: sorted(k.split()) for kind, k in pinned.items()}


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


def _describe(action):
    name = "/".join(action.option_strings) or action.dest
    if isinstance(action, argparse._StoreTrueAction):
        return f"{name} flag"
    if isinstance(action, argparse._AppendAction):
        kind = "append"
    else:
        kind = (action.type or str).__name__
    text = f"{name} {kind} {action.default!r}"
    if action.choices:
        text += " {" + ",".join(action.choices) + "}"
    return text + (" required" if action.required else "")


def _subcommands(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + name, sub
                yield from _subcommands(sub, f"{prefix}{name} ")


def test_cli_options():
    surface = {
        name: tuple(
            _describe(action)
            for action in sub._actions
            if not isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            )
        )
        for name, sub in _subcommands(build_parser())
    }
    assert surface == CLI_OPTIONS
