"""Composable, seedable fault models.

A :class:`FaultPlan` bundles everything that can go wrong during online
execution, each piece independently configurable:

* :class:`MachineCrash` — a chunk of cluster capacity disappears at a
  known time and (optionally) returns at a recovery time.  The cluster
  model is an aggregate slot pool (Sec. II-C), so a "machine" is a
  capacity vector, not an identity; running work displaced by the lost
  capacity is killed and re-enqueued.
* :class:`TransientFaults` — every task attempt fails independently with
  a fixed probability; the failure manifests at the attempt's finish
  time (the output is lost, the slot-time is not refunded).
* :class:`StragglerModel` — a task attempt is slowed down by a constant
  multiplier with a fixed probability (the classic straggler tail).
* :class:`RuntimeNoise` — every attempt's *actual* runtime deviates from
  the DAG's estimate by lognormal or uniform multiplicative noise,
  modelling runtime misestimation.
* :class:`RetryPolicy` — capped exponential backoff between attempts and
  the attempt budget after which a job is reported failed.

Determinism: the plan carries a single integer ``seed``; every stochastic
decision is drawn from an RNG keyed by ``(seed, job, task, attempt)``
(see :class:`repro.faults.injector.FaultInjector`), so outcomes are
bit-reproducible and *independent of event ordering* — a rescheduling
decision cannot perturb the fault stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..errors import ConfigError
from ..specs import Schema, parse_spec
from ..utils.rng import as_generator

__all__ = [
    "MachineCrash",
    "TransientFaults",
    "StragglerModel",
    "RuntimeNoise",
    "RetryPolicy",
    "FaultPlan",
    "random_crash_plan",
    "parse_fault_spec",
]


@dataclass(frozen=True)
class MachineCrash:
    """One machine-loss event: ``capacity`` slots vanish at ``at``.

    Attributes:
        machine: reporting label (machines have no identity in the
            aggregate pool model).
        at: crash time in slots.
        capacity: slots lost per resource dimension.
        recover_at: time the capacity returns; ``None`` = permanent loss.
    """

    machine: int
    at: int
    capacity: Tuple[int, ...]
    recover_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigError("crash time must be >= 0")
        if not self.capacity or any(c < 0 for c in self.capacity):
            raise ConfigError("crash capacity must be a non-negative vector")
        if all(c == 0 for c in self.capacity):
            raise ConfigError("crash must remove at least one slot")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ConfigError("recover_at must be after the crash time")
        object.__setattr__(self, "capacity", tuple(int(c) for c in self.capacity))


@dataclass(frozen=True)
class TransientFaults:
    """Per-attempt transient failure probability."""

    probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ConfigError("transient probability must lie in [0, 1)")


@dataclass(frozen=True)
class StragglerModel:
    """Probabilistic constant-factor slowdown of an attempt."""

    probability: float = 0.0
    slowdown: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("straggler probability must lie in [0, 1]")
        if not math.isfinite(self.slowdown):
            raise ConfigError(f"straggler slowdown must be finite, got {self.slowdown}")
        if self.slowdown < 1.0:
            raise ConfigError("straggler slowdown must be >= 1")


@dataclass(frozen=True)
class RuntimeNoise:
    """Multiplicative misestimation noise on task runtimes.

    ``lognormal`` draws a factor with median 1 and shape ``scale``;
    ``uniform`` draws a factor from ``[1 - scale, 1 + scale]``.
    """

    kind: str = "lognormal"
    scale: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in ("lognormal", "uniform"):
            raise ConfigError(
                f"noise kind must be 'lognormal' or 'uniform', got {self.kind!r}"
            )
        if not math.isfinite(self.scale):
            raise ConfigError(f"noise scale must be finite, got {self.scale}")
        if self.scale <= 0:
            raise ConfigError("noise scale must be > 0")
        if self.kind == "uniform" and self.scale >= 1.0:
            raise ConfigError("uniform noise scale must be < 1")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff between attempts.

    Attempt ``k`` (1-based) that fails transiently is retried after
    ``min(backoff_cap, backoff_base * 2**(k-1))`` slots.  After
    ``max_attempts`` transient failures the owning job is reported
    failed (crash-displaced work always retries — crashes are finite and
    not the task's fault).
    """

    max_attempts: int = 4
    backoff_base: int = 1
    backoff_cap: int = 16

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ConfigError("backoff_base must be >= 0")
        if self.backoff_cap < self.backoff_base:
            raise ConfigError("backoff_cap must be >= backoff_base")

    def delay(self, attempt: int) -> int:
        """Backoff before retrying after the ``attempt``-th failure."""
        if attempt < 1:
            raise ConfigError("attempt numbers are 1-based")
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))


@dataclass(frozen=True)
class FaultPlan:
    """The composed fault model one online run executes under."""

    crashes: Tuple[MachineCrash, ...] = ()
    transient: TransientFaults = field(default_factory=TransientFaults)
    straggler: StragglerModel = field(default_factory=StragglerModel)
    noise: Optional[RuntimeNoise] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("fault seed must be >= 0")
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.crashes
            and self.transient.probability == 0.0
            and self.straggler.probability == 0.0
            and self.noise is None
        )

    def validate_against(self, capacities: Sequence[int]) -> None:
        """Reject crash events no cluster of ``capacities`` could survive.

        Simultaneously-down capacity must leave every dimension >= 0;
        dimensionality must match.

        Raises:
            ConfigError: on dimension mismatch or over-subscribed loss.
        """

        caps = tuple(capacities)
        events = []
        for crash in self.crashes:
            if len(crash.capacity) != len(caps):
                raise ConfigError(
                    f"crash capacity {crash.capacity} has {len(crash.capacity)} "
                    f"dims, cluster has {len(caps)}"
                )
            events.append((crash.at, 1, crash.capacity))
            if crash.recover_at is not None:
                events.append((crash.recover_at, 0, crash.capacity))
        down = [0] * len(caps)
        for _, kind, capacity in sorted(events, key=lambda e: (e[0], e[1])):
            sign = 1 if kind == 1 else -1
            for r, c in enumerate(capacity):
                down[r] += sign * c
                if down[r] > caps[r]:
                    raise ConfigError(
                        f"crash plan removes {down[r]} slots of resource {r}, "
                        f"cluster only has {caps[r]}"
                    )


def random_crash_plan(
    num_crashes: int,
    capacities: Sequence[int],
    horizon: int,
    outage: int = 50,
    fraction: float = 0.25,
    seed: int = 0,
) -> Tuple[MachineCrash, ...]:
    """Generate a seeded batch of recoverable crash events.

    Crash times are drawn uniformly in ``[horizon // 10, horizon)``, each
    removing ``fraction`` of every capacity dimension (at least one slot)
    for ``outage`` slots.  Events are staggered so simultaneous losses
    never exceed the validated bound.

    Raises:
        ConfigError: on non-positive horizon/outage or a fraction that
            leaves no capacity.
    """

    if num_crashes < 0:
        raise ConfigError("num_crashes must be >= 0")
    if horizon < 2:
        raise ConfigError("horizon must be >= 2")
    if outage < 1:
        raise ConfigError("outage must be >= 1")
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must lie in (0, 1)")
    rng = as_generator(seed)
    loss = tuple(max(1, int(c * fraction)) for c in capacities)
    crashes = []
    lo = max(1, horizon // 10)
    for machine in range(num_crashes):
        at = int(rng.integers(lo, max(lo + 1, horizon)))
        # Stagger: a crash may only begin once the previous one recovered,
        # keeping the simultaneous loss at a single machine's worth.
        if crashes and at <= crashes[-1].recover_at:
            at = crashes[-1].recover_at + 1
        crashes.append(
            MachineCrash(
                machine=machine, at=at, capacity=loss, recover_at=at + outage
            )
        )
    return tuple(crashes)


#: The options of a fault spec; the spec names no kind.
FAULT_SPEC_SCHEMA = Schema(
    {
        "crashes": int,
        "outage": int,
        "fraction": float,
        "transient": float,
        "straggler": float,
        "slowdown": float,
        "noise": float,
        "noise_kind": str,
        "max_attempts": int,
        "backoff": int,
        "backoff_cap": int,
        "seed": int,
    }
)


def parse_fault_spec(
    spec: str,
    capacities: Sequence[int],
    horizon: int,
    seed: int = 0,
) -> FaultPlan:
    """Build a :class:`FaultPlan` from a compact ``key=value`` spec string.

    Example::

        parse_fault_spec("crashes=2,transient=0.05,straggler=0.1,noise=0.2",
                         capacities=(20, 20), horizon=400)

    Keys: ``crashes`` (int), ``outage`` (int slots), ``fraction`` (float
    capacity share per crash), ``transient`` (float probability),
    ``straggler`` (float probability), ``slowdown`` (float multiplier),
    ``noise`` (float scale; enables lognormal noise unless 0), ``noise_kind``
    (``lognormal``/``uniform``), ``max_attempts``, ``backoff``,
    ``backoff_cap`` (ints), ``seed`` (int; defaults to the ``seed``
    argument).

    Raises:
        ConfigError: on an unknown or repeated key or a bad value
            (:func:`repro.specs.parse_spec`, against
            :data:`FAULT_SPEC_SCHEMA`).
    """
    _, values = parse_spec("fault", spec, FAULT_SPEC_SCHEMA)
    plan_seed = values.get("seed", seed)
    crashes = random_crash_plan(
        values.get("crashes", 0),
        capacities,
        horizon,
        outage=values.get("outage", max(1, horizon // 8)),
        fraction=values.get("fraction", 0.25),
        seed=plan_seed,
    )
    noise_scale = values.get("noise", 0.0)
    plan = FaultPlan(
        crashes=crashes,
        transient=TransientFaults(probability=values.get("transient", 0.0)),
        straggler=StragglerModel(
            probability=values.get("straggler", 0.0),
            slowdown=values.get("slowdown", 2.0),
        ),
        noise=(
            RuntimeNoise(kind=values.get("noise_kind", "lognormal"), scale=noise_scale)
            if noise_scale != 0
            else None
        ),
        retry=RetryPolicy(
            max_attempts=values.get("max_attempts", 4),
            backoff_base=values.get("backoff", 1),
            backoff_cap=values.get("backoff_cap", 16),
        ),
        seed=plan_seed,
    )
    plan.validate_against(capacities)
    return plan
