"""Every documented spec string builds the object it documents.

The examples are the ones the docstrings, the CLI help, README and CI's
smoke runs show, for all four spec families.  Each is pinned to the
class it builds and the values that object carries, with the type of
every value (``200`` is an int, ``0.05`` a float, ``"heft"`` a string).
"""

from dataclasses import fields, is_dataclass

import pytest

from repro.config import EnvConfig
from repro.faults import (
    FaultPlan,
    RetryPolicy,
    RuntimeNoise,
    StragglerModel,
    TransientFaults,
    parse_fault_spec,
    random_crash_plan,
)
from repro.federation import (
    AffinityRouter,
    HashRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    parse_router_spec,
)
from repro.schedulers import registry
from repro.streaming import (
    PoissonProcess,
    TraceArrivals,
    UniformProcess,
    parse_arrival_spec,
)
from repro.traces.arrivals import poisson_arrivals, uniform_arrivals
from repro.traces.job import Trace
from repro.traces.synthetic import TraceConfig, generate_production_trace


def typed(value):
    """``value`` with the type of every leaf, dataclasses walked field by field."""
    if is_dataclass(value):
        return type(value).__name__, [typed(getattr(value, f.name)) for f in fields(value)]
    if isinstance(value, (tuple, list)):
        return [typed(item) for item in value]
    return type(value).__name__, value


# ---------------------------------------------------------------- schedulers

#: (spec, options the factory receives, wrappers outermost first,
#: wrapper attributes).
SCHEDULER_EXAMPLES = [
    ("tetris", {}, [], {}),
    ("sjf", {}, [], {}),
    ("cp", {}, [], {}),
    ("graphene", {}, [], {}),
    ("heft", {}, [], {}),
    ("fifo", {}, [], {}),
    ("tetris:verify=true", {}, ["VerifyingScheduler"], {}),
    ("mcts:budget=50", {"budget": 50}, [], {}),
    ("mcts:budget=200", {"budget": 200}, [], {}),
    ("mcts:budget=50,seed=2", {"budget": 50, "seed": 2}, [], {}),
    ("mcts:budget=200,seed=3", {"budget": 200, "seed": 3}, [], {}),
    (
        "mcts:budget=200,min_budget=50,seed=3",
        {"budget": 200, "min_budget": 50, "seed": 3},
        [],
        {},
    ),
    ("mcts:budget=40,min_budget=15", {"budget": 40, "min_budget": 15}, [], {}),
    ("spear:budget=100,verify=true", {"budget": 100}, ["VerifyingScheduler"], {}),
    (
        "spear:budget=100,fallback=heft",
        {"budget": 100},
        ["ReschedulingScheduler"],
        {"fallback": "heft", "replan_budget": None},
    ),
    (
        "spear:budget=2000,fallback=heft",
        {"budget": 2000},
        ["ReschedulingScheduler"],
        {"fallback": "heft", "replan_budget": None},
    ),
    (
        "spear:budget=2000,fallback=heft,verify=true",
        {"budget": 2000},
        ["VerifyingScheduler", "ReschedulingScheduler"],
        {"fallback": "heft", "replan_budget": None},
    ),
]


@pytest.mark.parametrize(
    "spec, options, wrappers, wrapper_values",
    SCHEDULER_EXAMPLES,
    ids=[example[0] for example in SCHEDULER_EXAMPLES],
)
def test_scheduler_example(spec, options, wrappers, wrapper_values, monkeypatch):
    name = spec.partition(":")[0]
    registry.make_scheduler(name)  # import a lazily registered scheduler
    received = []
    factory = registry._FACTORIES[name]

    def recording_factory(config, **kwargs):
        received.append(kwargs)
        return factory(config, **kwargs)

    monkeypatch.setitem(registry._FACTORIES, name, recording_factory)
    scheduler = registry.make_scheduler(spec, EnvConfig())
    assert [typed(kwargs) for kwargs in received] == [typed(options)]
    chain = []
    while type(scheduler).__name__ in ("VerifyingScheduler", "TelemetryScheduler",
                                       "ReschedulingScheduler"):
        chain.append(type(scheduler).__name__)
        if type(scheduler).__name__ == "ReschedulingScheduler":
            fallback = scheduler.fallback
            assert typed({
                "fallback": fallback.name if fallback is not None else None,
                "replan_budget": scheduler.replan_budget,
            }) == typed(wrapper_values)
        scheduler = scheduler.inner
    assert chain == wrappers
    assert scheduler.name == name


def test_scheduler_spec_list_of_the_compare_help():
    from repro.cli import _split_spec_list

    specs = _split_spec_list("tetris,sjf,cp,graphene,heft")
    assert [registry.make_scheduler(spec).name for spec in specs] == specs


# ------------------------------------------------------------------ arrivals


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    generate_production_trace(TraceConfig(num_jobs=5), seed=0).save(path)
    return path


#: (spec, class, attribute -> value).
SYNTHETIC_ARRIVAL_EXAMPLES = [
    ("poisson:rate=0.05,n=1000", PoissonProcess, {"rate": 0.05, "num_jobs": 1000}),
    ("poisson:rate=0.05,n=200", PoissonProcess, {"rate": 0.05, "num_jobs": 200}),
    ("poisson:rate=0.1,n=300", PoissonProcess, {"rate": 0.1, "num_jobs": 300}),
    ("poisson:rate=0.05,n=40", PoissonProcess, {"rate": 0.05, "num_jobs": 40}),
    ("uniform:interarrival=20,n=50", UniformProcess, {"interarrival": 20, "num_jobs": 50}),
]


@pytest.mark.parametrize(
    "spec, cls, values",
    SYNTHETIC_ARRIVAL_EXAMPLES,
    ids=[example[0] for example in SYNTHETIC_ARRIVAL_EXAMPLES],
)
def test_arrival_example(spec, cls, values):
    process = parse_arrival_spec(spec, seed=5)
    assert type(process) is cls
    assert typed({key: getattr(process, key) for key in values}) == typed(values)
    assert process.seed == 5


@pytest.mark.parametrize(
    "options, build",
    [
        ("mean=25", lambda trace: poisson_arrivals(trace, 25.0, seed=5)),
        ("interarrival=20", lambda trace: uniform_arrivals(trace, 20)),
    ],
    ids=["mean", "interarrival"],
)
def test_trace_arrival_example(options, build, trace_path):
    process = parse_arrival_spec(f"trace:path={trace_path},{options}", seed=5)
    assert type(process) is TraceArrivals
    expected = build(Trace.load(trace_path))
    assert [(job.arrival_time, job.graph.num_tasks) for job in process.jobs()] == [
        (job.arrival_time, job.graph.num_tasks) for job in expected
    ]


# ------------------------------------------------------------------- routers

ROUTER_EXAMPLES = [
    ("round-robin", RoundRobinRouter, {}),
    ("least-load", LeastLoadedRouter, {"metric": "jobs"}),
    ("least-load:metric=jobs", LeastLoadedRouter, {"metric": "jobs"}),
    ("least-load:metric=tasks", LeastLoadedRouter, {"metric": "tasks"}),
    ("hash", HashRouter, {"salt": 0}),
    ("hash:salt=7", HashRouter, {"salt": 7}),
    ("affinity", AffinityRouter, {"spill": None}),
    ("affinity:spill=4", AffinityRouter, {"spill": 4}),
]


@pytest.mark.parametrize(
    "spec, cls, values", ROUTER_EXAMPLES, ids=[example[0] for example in ROUTER_EXAMPLES]
)
def test_router_example(spec, cls, values):
    router = parse_router_spec(spec)
    assert type(router) is cls
    assert typed({key: getattr(router, key) for key in values}) == typed(values)


# -------------------------------------------------------------------- faults

CAPACITIES = (20, 20)
HORIZON = 400


def expected_plan(crashes=0, transient=0.0, straggler=0.0, noise=0.0, seed=0):
    """The plan a spec setting these keys (and no others) documents."""
    return FaultPlan(
        crashes=random_crash_plan(
            crashes, CAPACITIES, HORIZON, outage=HORIZON // 8, fraction=0.25, seed=seed
        ),
        transient=TransientFaults(probability=transient),
        straggler=StragglerModel(probability=straggler, slowdown=2.0),
        noise=RuntimeNoise(kind="lognormal", scale=noise) if noise > 0 else None,
        retry=RetryPolicy(max_attempts=4, backoff_base=1, backoff_cap=16),
        seed=seed,
    )


FAULT_EXAMPLES = [
    ("crashes=1", dict(crashes=1)),
    ("crashes=2,transient=0.05", dict(crashes=2, transient=0.05)),
    ("crashes=1,transient=0.05", dict(crashes=1, transient=0.05)),
    (
        "crashes=2,transient=0.05,straggler=0.1",
        dict(crashes=2, transient=0.05, straggler=0.1),
    ),
    (
        "crashes=2,transient=0.05,straggler=0.1,noise=0.2",
        dict(crashes=2, transient=0.05, straggler=0.1, noise=0.2),
    ),
    (
        "crashes=2,transient=0.05,straggler=0.1,noise=0.15",
        dict(crashes=2, transient=0.05, straggler=0.1, noise=0.15),
    ),
    (
        "crashes=1,transient=0.1,noise=0.2",
        dict(crashes=1, transient=0.1, noise=0.2),
    ),
]


@pytest.mark.parametrize(
    "spec, values", FAULT_EXAMPLES, ids=[example[0] for example in FAULT_EXAMPLES]
)
def test_fault_example(spec, values):
    plan = parse_fault_spec(spec, CAPACITIES, HORIZON, seed=3)
    assert typed(plan) == typed(expected_plan(**values, seed=3))
