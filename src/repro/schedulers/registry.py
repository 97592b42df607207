"""Name-based scheduler construction for the CLI and the experiment harness.

``make_scheduler("tetris")`` returns a ready-to-use :class:`Scheduler`.
Construction is driven by *spec strings* — a registry name plus typed
``key=value`` options::

    make_scheduler("mcts:budget=200,min_budget=50,seed=3")
    make_scheduler("spear:budget=2000,fallback=heft")
    make_scheduler("tetris:verify=true")

Option keys and their types are declared at registration time
(:func:`register`); unknown keys and malformed values raise
:class:`~repro.errors.ConfigError` with the known keys listed.  Four
*wrapper* keys are reserved on every spec and assemble the standard
decorator stack via :func:`compose_scheduler`:

* ``verify`` (bool) — machine-check every emitted schedule
  (:class:`VerifyingScheduler`);
* ``telemetry`` (bool) — wrap each plan in a ``scheduler.plan`` span
  (:class:`TelemetryScheduler`);
* ``fallback`` (spec) — degrade to this scheduler on planner errors or
  budget overruns (:class:`~repro.schedulers.rescheduler.ReschedulingScheduler`);
* ``replan_budget`` (float seconds) — per-replan wall-clock budget.

Spear and pure MCTS live in :mod:`repro.core` (they need extra machinery
— search budgets, trained networks) and register themselves when that
package is imported; the registry imports it lazily on first use of
either name, so ``make_scheduler("mcts:budget=50")`` works even when
only this module has been imported.
"""

from __future__ import annotations

import importlib
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..config import EnvConfig
from ..errors import ConfigError
from ..metrics.schedule import Schedule
from ..specs import OptionType, Schema, tokenize, typed_options, unknown
from ..telemetry import runtime as _telemetry
from ..utils.rng import as_generator
from .base import (
    PolicyScheduler,
    Scheduler,
    SchedulerWrapper,
    ScheduleRequest,
    _planning_config,
)
from .exact import BranchAndBoundScheduler
from .graphene import GrapheneScheduler
from .policies import RandomPolicy, greedy_policy
from .rescheduler import ReschedulingScheduler

__all__ = [
    "available_schedulers",
    "scheduler_options",
    "parse_scheduler_spec",
    "make_scheduler",
    "compose_scheduler",
    "register",
    "VerifyingScheduler",
    "TelemetryScheduler",
]

_FACTORIES: Dict[str, Callable[..., Scheduler]] = {}

#: Each registered scheduler's spec schema: its own options, sorted,
#: then the wrapper keys.
_SPEC_SCHEMAS: Dict[str, Schema] = {}

#: Names provided by packages the registry must not import eagerly
#: (``repro.core`` pulls in the RL stack); imported on first use.
_LAZY_PROVIDERS: Dict[str, str] = {"mcts": "repro.core", "spear": "repro.core"}

#: Spec keys consumed by :func:`make_scheduler` itself (wrapper stack),
#: valid on every scheduler and rejected as registration option names.
_WRAPPER_TYPES: Dict[str, OptionType] = {
    "verify": bool,
    "telemetry": bool,
    "fallback": str,
    "replan_budget": float,
}


def register(
    name: str,
    factory: Callable[..., Scheduler],
    options: Optional[Mapping[str, OptionType]] = None,
) -> None:
    """Register a scheduler factory under ``name``.

    Args:
        name: unique registry key (re-registering raises).
        factory: called as ``factory(env_config, **options)``; factories
            without options are called with the config alone.
        options: typed option schema, ``key -> type`` (``int``, ``float``,
            ``bool`` or ``str``) — the keys a spec string may set for this
            scheduler.  Spec values are coerced to the declared type before
            the factory sees them.

    Raises:
        ConfigError: on a duplicate name or an option key that collides
            with a reserved wrapper key.
    """
    if name in _FACTORIES:
        raise ConfigError(f"scheduler {name!r} already registered")
    schema = dict(sorted(options.items())) if options else {}
    clash = sorted(set(schema) & set(_WRAPPER_TYPES))
    if clash:
        raise ConfigError(
            f"scheduler {name!r} declares reserved option keys {clash}"
        )
    _FACTORIES[name] = factory
    _SPEC_SCHEMAS[name] = Schema({**schema, **_WRAPPER_TYPES})


def available_schedulers() -> List[str]:
    """Sorted names of all registered schedulers (lazy providers included)."""
    return sorted(set(_FACTORIES) | set(_LAZY_PROVIDERS))


def scheduler_options() -> Dict[str, Dict[str, str]]:
    """Per-scheduler option schemas as ``name -> {key: type name}``.

    Wrapper keys (valid everywhere) are not repeated per scheduler; the
    CLI's ``repro schedulers`` listing prints them once.
    """
    for name in list(_LAZY_PROVIDERS):
        _resolve_factory(name, name)
    return {
        name: {
            key: typ.__name__
            for key, typ in schema.items()
            if key not in _WRAPPER_TYPES
        }
        for name, schema in sorted(_SPEC_SCHEMAS.items())
    }


def parse_scheduler_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split ``"name:key=val,key=val"`` into ``(name, raw options)``.

    A bare name parses to ``(name, {})``.  Values stay strings here;
    :func:`make_scheduler` types them against the registered schema.

    Raises:
        ConfigError: on an empty name, a non-``key=value`` entry or a
            repeated key (:func:`repro.specs.tokenize`).
    """
    name, options = tokenize("scheduler", spec)
    if not name:
        raise unknown("scheduler", spec, "scheduler", name, available_schedulers())
    return name, options


def _resolve_factory(name: str, spec: str) -> Callable[..., Scheduler]:
    """Look up a factory, importing its lazy provider package if needed."""
    factory = _FACTORIES.get(name)
    if factory is None and name in _LAZY_PROVIDERS:
        importlib.import_module(_LAZY_PROVIDERS[name])
        factory = _FACTORIES.get(name)
    if factory is None:
        raise unknown("scheduler", spec, "scheduler", name, available_schedulers())
    return factory


class VerifyingScheduler(SchedulerWrapper):
    """Wraps any scheduler so every emitted schedule is machine-checked.

    After the inner scheduler plans, the schedule runs through
    :func:`repro.analysis.verify_schedule` against the request's graph
    and the capacities the plan was made for — the request's cluster
    snapshot when a replan carries one (resolved exactly like
    :func:`~repro.schedulers.base._planning_config` does, so degraded
    capacities and the oversized-task fallback agree with the planner),
    otherwise the configured cluster.  Any violated invariant raises
    :class:`repro.errors.ScheduleError` before the schedule can leak to
    callers.  The wrapper is transparent: it keeps the inner name and
    forwards attribute access, so reports and registries see the
    original scheduler.
    """

    def __init__(self, inner: Scheduler, env_config: EnvConfig | None = None) -> None:
        super().__init__(inner)
        self._config = env_config if env_config is not None else EnvConfig()

    def plan(self, request: ScheduleRequest) -> Schedule:
        from ..analysis.verifier import verify_schedule  # local: avoids a cycle

        schedule = self._inner.plan(request)
        capacities = tuple(
            _planning_config(self._config, request).cluster.capacities
        )
        verify_schedule(schedule, request.graph, capacities).raise_if_violations()
        return schedule


class TelemetryScheduler(SchedulerWrapper):
    """Wraps any scheduler so every plan lands in the telemetry pipeline.

    Each :meth:`plan` call becomes one ``scheduler.plan`` span (scheduler
    name, task count, replan flag, resulting makespan) plus a
    ``scheduler.plans`` counter tick.  With telemetry disabled the
    overhead is one no-op span per plan.
    """

    def plan(self, request: ScheduleRequest) -> Schedule:
        tm = _telemetry.active()
        with tm.span(
            "scheduler.plan",
            scheduler=self.name,
            tasks=request.graph.num_tasks,
            replan=request.cluster is not None,
        ) as span:
            schedule = self._inner.plan(request)
            if tm.enabled:
                span.set(makespan=schedule.makespan)
                tm.inc("scheduler.plans")
        return schedule


def compose_scheduler(
    scheduler: Union[Scheduler, str],
    env_config: EnvConfig | None = None,
    *,
    verify: bool = False,
    telemetry: bool = False,
    reschedule: bool = False,
    fallback: Union[Scheduler, str, None] = None,
    replan_budget: Optional[float] = None,
) -> Scheduler:
    """Assemble the standard wrapper stack around a scheduler.

    This is the one place wrapper nesting order is decided (innermost
    first): rescheduling — so degraded/fallback plans are still checked
    — then verification, then telemetry outermost so spans cover the
    verifier too.

    Args:
        scheduler: a ready instance, or a registry spec to build first.
        env_config: environment shape for verification and for building
            ``scheduler``/``fallback`` from specs.
        verify: add :class:`VerifyingScheduler`.
        telemetry: add :class:`TelemetryScheduler`.
        reschedule: add :class:`ReschedulingScheduler` (implied when
            ``fallback`` or ``replan_budget`` is given).
        fallback: heuristic to degrade to (instance or spec).
        replan_budget: per-replan wall-clock budget in seconds.

    Raises:
        ConfigError: via spec resolution or invalid budgets.
    """
    config = env_config if env_config is not None else EnvConfig()
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler, config)
    if isinstance(fallback, str):
        fallback = make_scheduler(fallback, config)
    if reschedule or fallback is not None or replan_budget is not None:
        scheduler = ReschedulingScheduler(
            scheduler, fallback=fallback, replan_budget=replan_budget
        )
    if verify:
        scheduler = VerifyingScheduler(scheduler, config)
    if telemetry:
        scheduler = TelemetryScheduler(scheduler)
    return scheduler


def make_scheduler(
    spec: str,
    env_config: EnvConfig | None = None,
    **options: Any,
) -> Scheduler:
    """Instantiate a scheduler from a registry spec.

    Args:
        spec: registry name, optionally with typed options and wrapper
            keys — ``"tetris"``, ``"mcts:budget=200,seed=3"``,
            ``"spear:budget=2000,fallback=heft,verify=true"``.
        env_config: environment shape; defaults to :class:`EnvConfig()`.
        **options: programmatic options, merged over the spec's (same
            keys, already typed — e.g. ``network=my_policy_network`` for
            ``spear``, which has no spec-string form).

    Raises:
        ConfigError: for unknown names or option keys (the message lists
            what exists) and malformed option values.
    """
    config = env_config if env_config is not None else EnvConfig()
    name, raw_options = parse_scheduler_spec(spec)
    factory = _resolve_factory(name, spec)
    typed = typed_options(
        "scheduler", spec, {**raw_options, **options}, _SPEC_SCHEMAS[name]
    )
    wrappers = {key: typed.pop(key) for key in _WRAPPER_TYPES if key in typed}
    scheduler = factory(config, **typed) if typed else factory(config)
    if wrappers:
        return compose_scheduler(scheduler, config, **wrappers)
    return scheduler


def _make_random(cfg: EnvConfig) -> PolicyScheduler:
    """Every plan of one ``random`` scheduler draws from one generator
    seeded 0, so a run is reproducible (as ``mcts`` with its default
    ``seed=0``)."""
    rng = as_generator(0)
    return PolicyScheduler(lambda: RandomPolicy(rng), cfg, name="random")


def _greedy(name: str) -> Callable[[EnvConfig], PolicyScheduler]:
    """The factory of the list heuristic ``name`` (a ``RANKERS`` rule)."""
    return lambda cfg: PolicyScheduler(partial(greedy_policy, name), cfg, name=name)


register("random", _make_random)
register("sjf", _greedy("sjf"))
register("cp", _greedy("cp"))
register("tetris", _greedy("tetris"))
register("graphene", lambda cfg: GrapheneScheduler(env_config=cfg))
register(
    "optimal",
    lambda cfg, **opts: BranchAndBoundScheduler(env_config=cfg, **opts),
    options={"max_nodes": int},
)
register("heft", _greedy("heft"))
register("lpt", _greedy("lpt"))
register("fifo", _greedy("fifo"))
