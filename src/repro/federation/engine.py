"""The federated open-system simulator: many shards of the shared engine.

:class:`FederatedStreamingSimulator` is the multi-scheduler facade over
:class:`repro.online.engine.ShardedEngine` — the loop that also runs
closed batches and single-scheduler streams.  It hands the engine what
only a federation has — a :class:`~repro.federation.routing.Router` to
place arrivals and, when ``steal_threshold`` is set, a
:class:`~repro.federation.stealing.WorkStealer` to rebalance after each
settled instant and to rescue never-started jobs off a wedged shard —
and owns the ``federation.run`` span and the
:class:`~repro.federation.results.FederationResult`.  With one shard
there is nothing to route or steal and the run is the one
:class:`~repro.streaming.StreamingSimulator` performs: the aggregate is
an equal result object by construction.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..errors import ConfigError
from ..online.engine import ShardedEngine
from ..streaming.arrivals import ArrivalProcess
from ..telemetry import runtime as _telemetry
from .ledger import FederationLedger
from .results import FederationResult, ShardReport, aggregate_result
from .routing import Router, parse_router_spec
from .shard import ShardSpec
from .stealing import WorkStealer

__all__ = ["FederatedStreamingSimulator"]


class FederatedStreamingSimulator:
    """Continuous-arrival simulation over a sharded federation.

    Args:
        shards: one spec per shard; shard ``k`` gets id ``k``.  All
            shards must agree on the resource dimensionality.
        router: placement policy — a :class:`Router` instance or a
            ``"policy:key=val"`` spec string.
        steal_threshold: migrate work when the jobs-in-system gap
            between the most- and least-loaded shard exceeds this;
            ``None`` disables stealing (and crash rescue) entirely.
        max_steps: global safety cap on settled instants.

    With telemetry active a run reports ``federation.*`` events and
    gauges.
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        router: Union[Router, str] = "least-load",
        steal_threshold: Optional[int] = None,
        max_steps: int = 5_000_000,
    ) -> None:
        if not shards:
            raise ConfigError("a federation needs at least one shard")
        dims = {len(spec.capacities) for spec in shards}
        if len(dims) > 1:
            raise ConfigError(
                f"shards disagree on resource dimensionality: {sorted(dims)}"
            )
        if steal_threshold is not None and steal_threshold < 0:
            raise ConfigError(
                f"steal threshold must be >= 0, got {steal_threshold}"
            )
        self.specs = list(shards)
        self.router: Router = (
            parse_router_spec(router) if isinstance(router, str) else router
        )
        self.steal_threshold = steal_threshold
        self.max_steps = max_steps

    def run(
        self,
        arrivals: ArrivalProcess,
        horizon: Optional[int] = None,
    ) -> FederationResult:
        """Run the arrival process to completion (or the horizon).

        Args:
            arrivals: the open workload source, routed across shards.
            horizon: run length in slots from the first arrival; the
                stream is cut off past it (in-flight work drains).

        Raises:
            ConfigError: on an empty stream or invalid limits.
            EnvironmentStateError: if the step cap is exceeded or the
                federation wedges with work it can never place.
        """
        tm = _telemetry.active()
        with tm.span(
            "federation.run",
            shards=len(self.specs),
            router=self.router.name,
            stealing=self.steal_threshold is not None,
            horizon=-1 if horizon is None else horizon,
        ) as span:
            engine = ShardedEngine(
                self.specs,
                enumerate(arrivals.jobs()),
                max(1, arrivals.task_id_bound),
                tm,
                self.router,
            )
            shards = engine.shards
            stealer = (
                WorkStealer(shards, self.steal_threshold, engine.kernel, tm)
                if self.steal_threshold is not None and len(shards) > 1
                else None
            )
            makespan = engine.run(self.max_steps, horizon, stealer)
            result = FederationResult(
                aggregate=aggregate_result(
                    shards, engine.ledger, makespan, engine.start
                ),
                shards=tuple(
                    ShardReport(
                        shard_id=shard.id,
                        capacities=shard.capacities,
                        # The same assembly over this shard alone: nothing
                        # recorded above the shards belongs to its view.
                        result=aggregate_result(
                            [shard], FederationLedger(tm), makespan, engine.start
                        ),
                        routed=shard.routed,
                        stolen_in=shard.stolen_in,
                        stolen_out=shard.stolen_out,
                    )
                    for shard in shards
                ),
                steals=tuple(stealer.steals) if stealer is not None else (),
                router=self.router.name,
                steal_threshold=(
                    self.steal_threshold if self.steal_threshold is not None else -1
                ),
            )
            if tm.enabled:
                aggregate = result.aggregate
                span.set(
                    arrivals=aggregate.arrivals,
                    admitted=aggregate.admitted,
                    rejected=len(aggregate.rejected),
                    steals=len(result.steals),
                    makespan=aggregate.online.makespan,
                    p50_jct=aggregate.p50_jct,
                    p99_jct=aggregate.p99_jct,
                )
                tm.inc("federation.jobs", aggregate.arrivals)
        return result
