"""Routing policies: which shard an arriving job is placed on.

A :class:`Router` maps each routable arrival to one of the shards that
can feasibly run it.  Routing fires as a ``ROUTE`` kernel event (class
5 — after every same-instant ``ARRIVAL``, before ``STEAL`` and
``REPLAN``), so a policy reads fully settled shard loads and two runs
of the same spec route identically.

Policies, selectable by ``"policy:key=val,..."`` spec strings via
:func:`parse_router_spec`:

* ``round-robin`` — cycle through the feasible shards in arrival
  order; the trivial policy (and the 1-shard equivalence pin's router);
* ``least-load:metric=jobs|tasks`` — the shard with the lowest load
  (jobs in system, or remaining tasks), lowest id on ties;
* ``hash:salt=N`` — stateless deterministic spreading by a Knuth
  multiplicative mix of the arrival index (never Python's ``hash()``,
  which is process-randomized);
* ``affinity:spill=N`` — locality: arrival ``i`` homes on shard
  ``i % num_shards``; with ``spill=`` set, a home already carrying at
  least ``N`` jobs overflows to the least-loaded feasible shard.

No policy ever invents randomness: every choice is a pure function of
(arrival index, shard loads, shard ids).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Sequence

from ..errors import ConfigError
from ..online.results import ArrivingJob
from ..specs import Schema, parse_spec
from .shard import Shard

__all__ = [
    "AffinityRouter",
    "HashRouter",
    "LeastLoadedRouter",
    "RoundRobinRouter",
    "Router",
    "parse_router_spec",
]


class Router(Protocol):
    """Placement policy: pick one feasible shard per routable arrival."""

    name: str

    def route(
        self,
        index: int,
        job: ArrivingJob,
        feasible: Sequence[Shard],
        num_shards: int,
    ) -> Shard:
        """Choose among ``feasible`` (nonempty, ascending shard id).

        Args:
            index: arrival index of the job (the stream position).
            job: the arriving job (graph and arrival time).
            feasible: shards whose capacities can run every task.
            num_shards: size of the whole shard universe (affinity
                homes are computed over it, not the feasible subset).
        """


class RoundRobinRouter:
    """Cycle through feasible shards; position advances per routed job."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(
        self,
        index: int,
        job: ArrivingJob,
        feasible: Sequence[Shard],
        num_shards: int,
    ) -> Shard:
        del index, job, num_shards
        shard = feasible[self._next % len(feasible)]
        self._next += 1
        return shard


class LeastLoadedRouter:
    """Lowest load wins; ties break to the lowest shard id.

    Args:
        metric: ``"jobs"`` counts jobs in system (active + backlog);
            ``"tasks"`` counts remaining tasks, which weighs wide DAGs
            more honestly under heterogeneous job sizes.
    """

    name = "least-load"

    def __init__(self, metric: str = "jobs") -> None:
        if metric not in ("jobs", "tasks"):
            raise ConfigError(
                f"least-load metric must be jobs or tasks, got {metric!r}"
            )
        self.metric = metric

    def _load(self, shard: Shard) -> int:
        return shard.load() if self.metric == "jobs" else shard.task_load()

    def route(
        self,
        index: int,
        job: ArrivingJob,
        feasible: Sequence[Shard],
        num_shards: int,
    ) -> Shard:
        del index, job, num_shards
        return min(feasible, key=lambda s: (self._load(s), s.id))


class HashRouter:
    """Stateless spreading by a multiplicative hash of the arrival index.

    Args:
        salt: mixed into the hash so distinct federations decorrelate.
    """

    name = "hash"

    _KNUTH = 2654435761  # golden-ratio multiplier, 2**32 scale

    def __init__(self, salt: int = 0) -> None:
        self.salt = int(salt)

    def route(
        self,
        index: int,
        job: ArrivingJob,
        feasible: Sequence[Shard],
        num_shards: int,
    ) -> Shard:
        del job, num_shards
        mixed = ((index + self.salt) * self._KNUTH) % (2**32)
        return feasible[mixed % len(feasible)]


class AffinityRouter:
    """Locality first: arrival ``i`` homes on shard ``i % num_shards``.

    Args:
        spill: when set, a home shard already at ``spill`` or more jobs
            in system overflows the arrival to the least-loaded feasible
            shard (load-aware escape hatch for hot homes).
    """

    name = "affinity"

    def __init__(self, spill: Optional[int] = None) -> None:
        if spill is not None and spill < 1:
            raise ConfigError(f"affinity spill must be >= 1, got {spill}")
        self.spill = spill

    def route(
        self,
        index: int,
        job: ArrivingJob,
        feasible: Sequence[Shard],
        num_shards: int,
    ) -> Shard:
        del job
        home_id = index % num_shards
        home = next((s for s in feasible if s.id == home_id), None)
        if home is not None and (self.spill is None or home.load() < self.spill):
            return home
        return min(feasible, key=lambda s: (s.load(), s.id))


#: The options of each router policy.
ROUTER_SPEC_SCHEMAS: Dict[str, Schema] = {
    "round-robin": Schema(),
    "least-load": Schema({"metric": str}),
    "hash": Schema({"salt": int}),
    "affinity": Schema({"spill": int}),
}

_ROUTERS: Dict[str, Callable[..., Router]] = {
    "round-robin": RoundRobinRouter,
    "least-load": LeastLoadedRouter,
    "hash": HashRouter,
    "affinity": AffinityRouter,
}


def parse_router_spec(spec: str) -> Router:
    """Build a :class:`Router` from a ``policy:key=value,...`` spec.

    Supported policies::

        round-robin                 cycle through feasible shards
        least-load:metric=jobs      lowest load (metric: jobs|tasks)
        hash:salt=7                 stateless index hashing
        affinity:spill=4            index % shards, spill when hot

    Raises:
        ConfigError: on an unknown policy, an unknown or repeated key, or
            a bad value (:func:`repro.specs.parse_spec`, against
            :data:`ROUTER_SPEC_SCHEMAS`).
    """
    kind, options = parse_spec("router", spec, ROUTER_SPEC_SCHEMAS)
    return _ROUTERS[kind](**options)
